// Regenerates paper Table I: kernel-only performance at 16M grid points for
// the CPU (1 and 24 cores), the V100, and a single HLS kernel on the Alveo
// U280 and Stratix 10. Model output only: perfbench measures this host's
// engines (api.solve_ms.<kernel>.<backend>).
//
// Alongside the ASCII table, the run dumps a registry-backed JSON artefact
// (default BENCH_table1.json, override with --json=): GFLOPS and % of
// theoretical peak come straight from fpga::record_kernel_only, not hand
// math.
#include <string>

#include "bench_common.hpp"
#include "pw/exp/experiments.hpp"
#include "pw/fpga/perf_model.hpp"

namespace {

pw::fpga::KernelOnlyInput single_kernel_input(
    const pw::fpga::FpgaDeviceProfile& device, const pw::grid::GridDims& dims) {
  pw::fpga::KernelOnlyInput input;
  input.dims = dims;
  input.config.chunk_y = 64;
  input.kernels = 1;
  input.clock_hz = device.clock_hz(1);
  input.memory = device.memories.front();
  input.launch_overhead_s = device.launch_overhead_s;
  return input;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pw;
  const util::Cli cli(argc, argv);
  const auto devices = exp::paper_devices();
  const grid::GridDims paper_dims = grid::paper_grid(16);

  obs::MetricsRegistry registry;

  // The two modelled FPGA rows, published through the registry (gauges
  // table1.<device>.gflops / .pct_of_theoretical_peak / ...).
  for (const auto* device : {&devices.alveo, &devices.stratix}) {
    const auto input = single_kernel_input(*device, paper_dims);
    const auto result = fpga::model_kernel_only(input);
    const std::string prefix =
        device == &devices.alveo ? "table1.alveo" : "table1.stratix";
    fpga::record_kernel_only(input, result, registry, prefix);
  }
  registry.gauge_set("table1.cpu_1core.gflops",
                     devices.cpu.gflops_single_core);
  registry.gauge_set("table1.cpu_24core.gflops", devices.cpu.gflops_all_cores);
  registry.gauge_set("table1.v100.gflops", devices.v100.kernel_gflops);
  registry.gauge_set("table1.cells", static_cast<double>(paper_dims.cells()));

  const int status = bench::emit(exp::table1(devices), cli);
  const int json_status =
      bench::emit_registry(registry, "BENCH_table1.json", cli);
  return status != 0 ? status : json_status;
}
