#include "pw/ocl/host_driver.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "pw/fault/injector.hpp"
#include "pw/kernel/chunking.hpp"
#include "pw/obs/metrics.hpp"
#include "pw/obs/span.hpp"

namespace pw::ocl {

namespace {

/// One X-chunk's events, kept so the modelled schedule can be exported as
/// spans after finish() resolves it.
struct ChunkEvents {
  Event first_write, last_write, kernel, first_read, last_read;
};

}  // namespace

HostDriverResult HostDriver::run_round(
    const std::string& name, std::span<const grid::FieldView<const double>> in,
    std::span<const grid::FieldView<double>> out, const ChunkKernel& kernel) {
  // Every view must be a whole dense field of the first input's shape, so
  // that a slab's transfer is one contiguous range of it.
  shape_ = in.front();
  const grid::GridDims dims = shape_.dims;
  const auto halo = static_cast<std::ptrdiff_t>(shape_.halo);
  const std::ptrdiff_t column = static_cast<std::ptrdiff_t>(dims.nz) + 2 * halo;
  const auto dense = [&](const auto& view) {
    return view.dims == dims && view.halo == shape_.halo &&
           view.stride_j == column &&
           view.stride_i ==
               (static_cast<std::ptrdiff_t>(dims.ny) + 2 * halo) * column;
  };
  if (!std::all_of(in.begin(), in.end(), dense) ||
      !std::all_of(out.begin(), out.end(), dense)) {
    throw std::invalid_argument("HostDriver: views must share one dense shape");
  }
  const auto plane = static_cast<std::size_t>(shape_.stride_i);
  origin_ = halo * (shape_.stride_i + shape_.stride_j + 1);

  const std::size_t chunk_count =
      options_.overlapped ? std::max<std::size_t>(1, options_.x_chunks) : 1;
  const auto ranges = kernel::partition_x(dims.nx, chunk_count);
  // partition_x hands the wider chunks out first.
  const std::size_t capacity =
      (ranges.front().width() + 2 * shape_.halo) * plane;
  if (inputs_.size() != in.size() || outputs_.size() != out.size() ||
      inputs_.front().count() != capacity) {
    // Fault site "ocl.alloc": a failed clCreateBuffer for the device
    // residency (throws FaultError on kAllocFailure et al.).
    fault::throw_if("ocl.alloc");
    inputs_.assign(in.size(), Buffer(capacity));
    outputs_.assign(out.size(), Buffer(capacity));
  }

  obs::MetricsRegistry* metrics = engine_.metrics;
  std::optional<obs::Span> run_span;
  if (metrics != nullptr) {
    run_span.emplace(*metrics, "host/" + name);
  }

  CommandQueue queue(options_.timing);
  std::vector<ChunkEvents> events(ranges.size());
  HostDriverResult result;
  result.chunks = ranges.size();

  std::optional<obs::Span> enqueue_span;
  if (metrics != nullptr) {
    enqueue_span.emplace(*metrics, "enqueue");
  }
  Event previous_kernel;
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    const grid::GridDims slab{ranges[c].width(), dims.ny, dims.nz};
    const std::size_t count = (slab.nx + 2 * shape_.halo) * plane;
    const auto first_plane =
        static_cast<std::ptrdiff_t>(ranges[c].begin) - halo;
    ChunkEvents& chunk = events[c];

    std::vector<Event> kernel_deps;
    for (std::size_t f = 0; f < in.size(); ++f) {
      kernel_deps.push_back(queue.enqueue_write(
          inputs_[f], {&in[f].at(first_plane, -halo, -halo), count}));
    }
    chunk.first_write = kernel_deps.front();
    chunk.last_write = kernel_deps.back();
    result.bytes_written += in.size() * count * sizeof(double);
    if (previous_kernel.valid()) {
      kernel_deps.push_back(previous_kernel);
    }

    chunk.kernel = queue.enqueue_kernel(
        name + "_chunk_" + std::to_string(c),
        [&result, &kernel, slab] { result.stats += kernel(slab); },
        options_.kernel_time_model ? options_.kernel_time_model(slab) : 0.0,
        kernel_deps);
    previous_kernel = chunk.kernel;

    for (std::size_t o = 0; o < out.size(); ++o) {
      chunk.last_read = queue.enqueue_read(
          outputs_[o], {&out[o].at(first_plane, -halo, -halo), count},
          {chunk.kernel}, shape_.halo * plane);
      chunk.first_read = o == 0 ? chunk.last_read : chunk.first_read;
    }
    result.bytes_read += out.size() * count * sizeof(double);
  }
  enqueue_span.reset();

  {
    std::optional<obs::Span> finish_span;
    if (metrics != nullptr) {
      finish_span.emplace(*metrics, "finish");
    }
    result.timeline = queue.finish();
  }
  result.seconds = result.timeline.makespan_s;
  makespan_s_ += result.seconds;

  if (metrics != nullptr) {
    // Per-chunk phases on the *modelled* device timeline: the writes, the
    // kernel launch and the reads, now that finish() has resolved every
    // event against the schedule.
    for (const ChunkEvents& chunk : events) {
      metrics->record_span(
          "host/chunk/write", chunk.first_write.start_seconds(),
          chunk.last_write.end_seconds() - chunk.first_write.start_seconds(),
          0, /*modelled=*/true);
      metrics->record_span(
          "host/chunk/kernel", chunk.kernel.start_seconds(),
          chunk.kernel.end_seconds() - chunk.kernel.start_seconds(), 0,
          /*modelled=*/true);
      metrics->record_span(
          "host/chunk/read", chunk.first_read.start_seconds(),
          chunk.last_read.end_seconds() - chunk.first_read.start_seconds(), 0,
          /*modelled=*/true);
    }
    metrics->counter_add("host.chunks", result.chunks);
    metrics->counter_add("host.bytes_written", result.bytes_written);
    metrics->counter_add("host.bytes_read", result.bytes_read);
    metrics->gauge_set("host.makespan_s", makespan_s_);
    metrics->gauge_set("host.overlapped", options_.overlapped ? 1.0 : 0.0);
  }
  return result;
}

}  // namespace pw::ocl
