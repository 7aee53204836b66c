#include "pw/fpga/perf_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "pw/advect/flops.hpp"
#include "pw/kernel/chunking.hpp"
#include "pw/obs/metrics.hpp"

namespace pw::fpga {

double theoretical_gflops(std::size_t nz, double clock_hz,
                          std::size_t kernels, unsigned shift_ii) {
  if (shift_ii == 0) {
    shift_ii = 1;
  }
  return advect::flops_per_cycle(nz) * clock_hz *
         static_cast<double>(kernels) / static_cast<double>(shift_ii) / 1e9;
}

TransferBytes transfer_bytes(const grid::GridDims& dims) {
  const std::size_t field_bytes = dims.cells() * sizeof(double);
  return {3 * field_bytes, 3 * field_bytes};
}

std::size_t device_footprint_bytes(const grid::GridDims& dims) {
  const std::size_t padded =
      (dims.nx + 2) * (dims.ny + 2) * (dims.nz + 2) * sizeof(double);
  return 6 * padded;
}

KernelOnlyResult model_kernel_only(const KernelOnlyInput& input) {
  if (input.kernels == 0 || input.clock_hz <= 0.0) {
    throw std::invalid_argument("model_kernel_only: bad input");
  }
  const unsigned ii = std::max(1u, input.shift_ii);

  // Widest x-slab dominates the runtime (kernels run concurrently).
  const auto ranges = kernel::partition_x(input.dims.nx, input.kernels);
  std::size_t widest = 0;
  for (const auto& r : ranges) {
    widest = std::max(widest, r.width());
  }

  const kernel::ChunkPlan plan(input.dims, input.config.chunk_y);
  const std::uint64_t sweeps = std::max<std::size_t>(1, input.sweeps);
  std::uint64_t beats = 0;
  std::uint64_t interior = 0;
  for (const auto& chunk : plan.chunks()) {
    beats += (widest + 2) * chunk.padded_width() * (input.dims.nz + 2);
    interior += widest * chunk.width() * input.dims.nz;
  }
  beats *= sweeps;
  interior *= sweeps;

  // Bytes crossing external memory per beat: three 8-byte reads always;
  // three 8-byte writes on the interior-emitting beats.
  const double write_fraction =
      static_cast<double>(interior) / static_cast<double>(beats);
  const double bytes_per_beat = 24.0 + 24.0 * write_fraction;

  const double burst_eff =
      input.memory.burst_efficiency(plan.contiguous_run_doubles());

  const double clock_limit = input.clock_hz / static_cast<double>(ii);
  const double port_limit =
      input.memory.per_kernel_sustained_gbps * 1e9 * burst_eff /
      bytes_per_beat;
  const double system_limit = input.memory.system_sustained_gbps * 1e9 *
                              burst_eff * input.memory_share /
                              static_cast<double>(input.kernels) /
                              bytes_per_beat;

  KernelOnlyResult result;
  result.beat_rate_hz = std::min({clock_limit, port_limit, system_limit});
  result.memory_bound = result.beat_rate_hz < clock_limit;
  result.beats_per_kernel = beats;

  // Pipeline drain: the centre of the final stencil trails the last input
  // by only one cell, and successive chunks stream back-to-back through
  // the same FIFOs (the cycle simulator confirms no per-chunk bubble), so
  // the only tail is the downstream stage depth.
  const double drain_cycles = 32.0;

  result.seconds = static_cast<double>(beats) / result.beat_rate_hz +
                   drain_cycles / input.clock_hz + input.launch_overhead_s;
  // flops_per_cell == 0 selects the PW advection schedule (63/55 at the
  // column top); pw::stencil kernels supply their declared per-cell count.
  const double total_flops =
      input.flops_per_cell > 0.0
          ? input.flops_per_cell * static_cast<double>(input.dims.cells()) *
                static_cast<double>(sweeps)
          : static_cast<double>(advect::total_flops(input.dims)) *
                static_cast<double>(sweeps);
  result.theoretical_gflops =
      input.flops_per_cell > 0.0
          ? input.flops_per_cell * input.clock_hz *
                static_cast<double>(input.kernels) / static_cast<double>(ii) /
                1e9
          : theoretical_gflops(input.dims.nz, input.clock_hz, input.kernels,
                               ii);
  result.gflops = total_flops / result.seconds / 1e9;
  result.efficiency = result.gflops / result.theoretical_gflops;
  return result;
}

void record_kernel_only(const KernelOnlyInput& input,
                        const KernelOnlyResult& result,
                        obs::MetricsRegistry& registry,
                        std::string_view prefix) {
  const std::string base(prefix);
  registry.gauge_set(base + ".gflops", result.gflops);
  registry.gauge_set(base + ".theoretical_gflops",
                     result.theoretical_gflops);
  registry.gauge_set(base + ".pct_of_theoretical_peak",
                     result.efficiency * 100.0);
  registry.gauge_set(base + ".seconds", result.seconds);
  registry.gauge_set(base + ".beat_rate_hz", result.beat_rate_hz);
  registry.gauge_set(base + ".memory_bound",
                     result.memory_bound ? 1.0 : 0.0);
  registry.gauge_set(base + ".clock_mhz", input.clock_hz / 1e6);
  registry.gauge_set(base + ".kernels",
                     static_cast<double>(input.kernels));
  registry.counter_add(base + ".beats_per_kernel", result.beats_per_kernel);
}

}  // namespace pw::fpga
