// Regenerates paper Fig. 6: overall performance including PCIe transfers,
// with X-chunked transfers overlapped against compute via the event
// scheduler (OpenCL events / CUDA streams analogue).
//
// Alongside the ASCII table, the run dumps a registry-backed JSON artefact
// (default BENCH_fig6.json): one gauge set per device/grid (GFLOPS and
// compute/transfer utilisation from the modelled schedule), plus real
// per-chunk write/kernel/read spans from an instrumented host-driver pass
// on a host-sized grid — the Fig. 6 overlap made observable.
#include "bench_common.hpp"
#include "pw/advect/coefficients.hpp"
#include "pw/api/solver.hpp"
#include "pw/exp/experiments.hpp"
#include "pw/util/table.hpp"

int main(int argc, char** argv) {
  using namespace pw;
  const util::Cli cli(argc, argv);
  const auto devices = exp::paper_devices();

  obs::MetricsRegistry registry;

  // The modelled Fig. 6 numbers, one gauge set per device/grid-size cell.
  for (const exp::DeviceRun& run : exp::overall_runs(devices, true)) {
    std::string prefix = "fig6." + run.device + "." +
                         util::format_cells(run.cells);
    for (char& c : prefix) {
      if (c == ' ') {
        c = '_';
      }
    }
    if (!run.available) {
      registry.gauge_set(prefix + ".available", 0.0);
      continue;
    }
    registry.gauge_set(prefix + ".available", 1.0);
    registry.gauge_set(prefix + ".gflops", run.gflops);
    registry.gauge_set(prefix + ".seconds", run.seconds);
    registry.gauge_set(prefix + ".compute_utilisation",
                       run.compute_utilisation);
    registry.gauge_set(prefix + ".transfer_utilisation",
                       run.transfer_utilisation);
    registry.gauge_set(prefix + ".memory_share", run.memory_share);
  }

  // A real (host-sized) instrumented overlapped run through the unified
  // solver API: per-chunk write/kernel/read spans land in the registry.
  {
    const grid::GridDims dims{64, 64, 32};
    grid::WindState state(dims);
    grid::init_taylor_green(state, 4.0);
    const auto coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(dims, 100.0, 100.0, 50.0));

    api::SolverOptions options;
    api::HostOptions host;
    host.x_chunks = 8;
    host.overlapped = true;
    options.backend = host;
    options.kernel.chunk_y = 16;
    options.metrics = &registry;
    const auto result = api::Solver(options).solve(state, coefficients);
    if (!result.ok()) {
      std::cerr << "instrumented host run failed: " << result.message
                << "\n";
      return 1;
    }
  }

  const int status = bench::emit(exp::fig6(devices), cli);
  const int json_status =
      bench::emit_registry(registry, "BENCH_fig6.json", cli);
  return status != 0 ? status : json_status;
}
