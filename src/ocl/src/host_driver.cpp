#include "pw/ocl/host_driver.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "pw/fault/injector.hpp"
#include "pw/kernel/chunking.hpp"
#include "pw/obs/metrics.hpp"
#include "pw/obs/span.hpp"
#include "pw/stencil/advect.hpp"

namespace pw::ocl {

namespace {

/// One X-chunk's worth of staging state: pinned host slabs, device
/// buffers, and the result slabs awaiting scatter.
struct ChunkStage {
  kernel::XRange range;
  grid::GridDims slab_dims;

  // Host-side staging (the paper's pinned transfer buffers).
  std::vector<double> host_u, host_v, host_w;
  std::vector<double> host_su, host_sv, host_sw;

  // Simulated device residency.
  std::unique_ptr<Buffer> dev_u, dev_v, dev_w;
  std::unique_ptr<Buffer> dev_su, dev_sv, dev_sw;

  // Events for the chunk's three phases, kept so the modelled schedule can
  // be exported as spans after finish() resolves it.
  Event first_write, last_write, kernel, first_read, last_read;
};

std::size_t padded_count(const grid::GridDims& dims) {
  return (dims.nx + 2) * (dims.ny + 2) * (dims.nz + 2);
}

/// Copies the padded slab [xr.begin-1, xr.end+1) of `field` into `flat`
/// (local Field3D layout, which is identical plane-for-plane).
void gather_slab(const grid::FieldD& field, kernel::XRange xr,
                 std::vector<double>& flat) {
  const std::size_t plane =
      (field.ny() + 2) * (field.nz() + 2);  // one x-plane incl. halos
  const std::size_t planes = xr.width() + 2;
  flat.resize(planes * plane);
  for (std::size_t p = 0; p < planes; ++p) {
    const auto gi = static_cast<std::ptrdiff_t>(xr.begin + p) - 1;
    const double* src = &field.at(gi, -1, -1);
    std::memcpy(flat.data() + p * plane, src, plane * sizeof(double));
  }
}

/// Scatters a result slab's interior back into the global field.
void scatter_slab(const std::vector<double>& flat, kernel::XRange xr,
                  grid::FieldD& field) {
  const std::size_t plane = (field.ny() + 2) * (field.nz() + 2);
  for (std::size_t p = 0; p < xr.width(); ++p) {
    const auto gi = static_cast<std::ptrdiff_t>(xr.begin + p);
    // Interior plane p+1 of the padded slab.
    const double* src = flat.data() + (p + 1) * plane;
    double* dst = &field.at(gi, -1, -1);
    // Copy only interior j/k rows (skip the slab's halo shell so global
    // halos are preserved).
    for (std::size_t j = 0; j < field.ny(); ++j) {
      const std::size_t row = (j + 1) * (field.nz() + 2) + 1;
      std::memcpy(dst + row, src + row, field.nz() * sizeof(double));
    }
  }
}

}  // namespace

HostDriverResult advect_via_host(const grid::WindState& state,
                                 const advect::PwCoefficients& coefficients,
                                 advect::SourceTerms& out,
                                 const HostDriverConfig& config) {
  const grid::GridDims dims = state.u.dims();
  if (state.u.halo() != 1) {
    throw std::invalid_argument("advect_via_host: expects halo of 1");
  }
  const std::size_t chunk_count =
      config.overlapped ? std::max<std::size_t>(1, config.x_chunks) : 1;
  const auto ranges = kernel::partition_x(dims.nx, chunk_count);

  std::optional<obs::Span> run_span;
  if (config.metrics != nullptr) {
    run_span.emplace(*config.metrics, "host/advect");
  }

  CommandQueue queue(config.timing);
  std::vector<ChunkStage> stages(ranges.size());

  HostDriverResult result;
  result.chunks = ranges.size();

  std::optional<obs::Span> enqueue_span;
  if (config.metrics != nullptr) {
    enqueue_span.emplace(*config.metrics, "enqueue");
  }
  Event previous_kernel;
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    ChunkStage& stage = stages[c];
    stage.range = ranges[c];
    stage.slab_dims = {stage.range.width(), dims.ny, dims.nz};
    const std::size_t count = padded_count(stage.slab_dims);

    gather_slab(state.u, stage.range, stage.host_u);
    gather_slab(state.v, stage.range, stage.host_v);
    gather_slab(state.w, stage.range, stage.host_w);
    stage.host_su.assign(count, 0.0);
    stage.host_sv.assign(count, 0.0);
    stage.host_sw.assign(count, 0.0);

    // Fault site "ocl.alloc": a failed clCreateBuffer for this chunk's
    // device residency (throws FaultError on kAllocFailure et al.).
    fault::throw_if("ocl.alloc");
    stage.dev_u = std::make_unique<Buffer>(count);
    stage.dev_v = std::make_unique<Buffer>(count);
    stage.dev_w = std::make_unique<Buffer>(count);
    stage.dev_su = std::make_unique<Buffer>(count);
    stage.dev_sv = std::make_unique<Buffer>(count);
    stage.dev_sw = std::make_unique<Buffer>(count);

    const Event wu = queue.enqueue_write(*stage.dev_u, stage.host_u);
    const Event wv = queue.enqueue_write(*stage.dev_v, stage.host_v);
    const Event ww = queue.enqueue_write(*stage.dev_w, stage.host_w);
    stage.first_write = wu;
    stage.last_write = ww;
    result.bytes_written += 3 * count * sizeof(double);

    std::vector<Event> kernel_deps{wu, wv, ww};
    if (previous_kernel.valid()) {
      kernel_deps.push_back(previous_kernel);
    }

    const double kernel_seconds =
        config.kernel_time_model ? config.kernel_time_model(stage.slab_dims)
                                 : 0.0;
    ChunkStage* st = &stage;
    const auto* coeffs = &coefficients;
    const stencil::EngineConfig engine{.engine = stencil::Engine::kFused,
                                       .chunk_y = config.kernel.chunk_y,
                                       .metrics = config.metrics};
    const Event kernel_done = queue.enqueue_kernel(
        "advect_chunk_" + std::to_string(c),
        [st, coeffs, engine] {
          // Reconstruct the slab as local fields (same memory layout), run
          // the stencil machine's streaming pass on it, then expose results
          // in the device output buffers.
          grid::WindState slab(st->slab_dims);
          std::memcpy(slab.u.raw().data(), st->dev_u->device_view().data(),
                      st->dev_u->bytes());
          std::memcpy(slab.v.raw().data(), st->dev_v->device_view().data(),
                      st->dev_v->bytes());
          std::memcpy(slab.w.raw().data(), st->dev_w->device_view().data(),
                      st->dev_w->bytes());
          advect::SourceTerms sources(st->slab_dims);
          stencil::run_advect(slab, *coeffs, sources, engine);
          std::memcpy(st->dev_su->device_view().data(),
                      sources.su.raw().data(), st->dev_su->bytes());
          std::memcpy(st->dev_sv->device_view().data(),
                      sources.sv.raw().data(), st->dev_sv->bytes());
          std::memcpy(st->dev_sw->device_view().data(),
                      sources.sw.raw().data(), st->dev_sw->bytes());
        },
        kernel_seconds, kernel_deps);
    previous_kernel = kernel_done;
    stage.kernel = kernel_done;

    stage.first_read =
        queue.enqueue_read(*stage.dev_su, stage.host_su, {kernel_done});
    queue.enqueue_read(*stage.dev_sv, stage.host_sv, {kernel_done});
    stage.last_read =
        queue.enqueue_read(*stage.dev_sw, stage.host_sw, {kernel_done});
    result.bytes_read += 3 * count * sizeof(double);
  }
  enqueue_span.reset();

  {
    std::optional<obs::Span> finish_span;
    if (config.metrics != nullptr) {
      finish_span.emplace(*config.metrics, "finish");
    }
    result.timeline = queue.finish();
  }
  result.seconds = result.timeline.makespan_s;

  {
    std::optional<obs::Span> scatter_span;
    if (config.metrics != nullptr) {
      scatter_span.emplace(*config.metrics, "scatter");
    }
    for (const ChunkStage& stage : stages) {
      scatter_slab(stage.host_su, stage.range, out.su);
      scatter_slab(stage.host_sv, stage.range, out.sv);
      scatter_slab(stage.host_sw, stage.range, out.sw);
    }
  }

  if (config.metrics != nullptr) {
    // Per-chunk phases on the *modelled* device timeline: three writes, a
    // kernel launch, three reads, now that finish() has resolved every
    // event against the schedule.
    for (const ChunkStage& stage : stages) {
      config.metrics->record_span(
          "host/chunk/write", stage.first_write.start_seconds(),
          stage.last_write.end_seconds() - stage.first_write.start_seconds(),
          0, /*modelled=*/true);
      config.metrics->record_span(
          "host/chunk/kernel", stage.kernel.start_seconds(),
          stage.kernel.end_seconds() - stage.kernel.start_seconds(), 0,
          /*modelled=*/true);
      config.metrics->record_span(
          "host/chunk/read", stage.first_read.start_seconds(),
          stage.last_read.end_seconds() - stage.first_read.start_seconds(),
          0, /*modelled=*/true);
    }
    config.metrics->counter_add("host.chunks", result.chunks);
    config.metrics->counter_add("host.bytes_written", result.bytes_written);
    config.metrics->counter_add("host.bytes_read", result.bytes_read);
    config.metrics->gauge_set("host.makespan_s", result.seconds);
    config.metrics->gauge_set("host.overlapped",
                              config.overlapped ? 1.0 : 0.0);
  }
  return result;
}

}  // namespace pw::ocl
