// Table-I-style peak-fraction bench for every kernel declared in the
// pw::stencil registry: each registered StencilSpec is modelled as a single
// U280 kernel instance at the paper's 16M grid through the spec-derived
// fpga::perf_model entry (stencil::perf_input). Model output only: perfbench
// measures the engines on this host (api.solve_ms.<kernel>.<backend>), and
// ctest's `stencil` label holds every kernel on every engine bit-exact
// against its scalar reference.
//
// Alongside the ASCII table it dumps a registry-backed JSON artefact
// (default BENCH_stencils.json, override with --json=) with the
// stencils.<kernel>.model.* gauges.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "pw/fpga/perf_model.hpp"
#include "pw/stencil/poisson.hpp"
#include "pw/stencil/spec.hpp"
#include "pw/util/table.hpp"

namespace {

std::string pct(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pw;
  const util::Cli cli(argc, argv);

  const grid::GridDims model_dims = grid::paper_grid(16);
  stencil::PoissonParams poisson;
  poisson.iterations =
      static_cast<std::size_t>(cli.get_int("poisson_iters", 8));

  obs::MetricsRegistry registry;
  util::Table table("Stencil-machine kernels: modelled single U280 kernel at " +
                    util::format_cells(model_dims.cells()) + " cells");
  table.header({"kernel", "flops/cell", "sweeps", "model GF/s", "% of peak"});

  for (const stencil::StencilSpec& spec : stencil::registered_stencils()) {
    // The spec-derived analytic model row, published through the registry
    // (gauges stencils.<name>.model.gflops / .pct_of_theoretical_peak / ...).
    fpga::KernelOnlyInput input = stencil::perf_input(spec, model_dims);
    if (spec.name == stencil::poisson_spec().name) {
      input.sweeps = poisson.iterations;
    }
    const fpga::KernelOnlyResult model = fpga::model_kernel_only(input);
    fpga::record_kernel_only(input, model, registry,
                             "stencils." + spec.name + ".model");

    table.row({spec.name, util::format_double(spec.flops_per_cell, 0),
               std::to_string(input.sweeps),
               util::format_double(model.gflops, 2),
               pct(model.efficiency * 100.0)});
  }

  registry.gauge_set("stencils.bench.kernels",
                     static_cast<double>(stencil::registered_stencils().size()));

  const int status = bench::emit(table, cli);
  const int json_status =
      bench::emit_registry(registry, "BENCH_stencils.json", cli);
  return status != 0 ? status : json_status;
}
