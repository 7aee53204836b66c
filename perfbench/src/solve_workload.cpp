// `solve`: a closed loop with one caller. Each cycle sends every registry
// kernel x every api::Backend through api::Solver::solve once, in a fixed
// order, on one seeded 64x64x64 grid, each cycle on one CPU. The engines
// do all the work; serve and shard do none.

#include <optional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "pw/api/request.hpp"
#include "pw/util/thread_pool.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pw;

constexpr grid::GridDims kDims{64, 64, 64};
constexpr std::size_t kPoolSpawns = 64;

struct SolveState {
  std::vector<api::SolveRequest> requests;  ///< kernel-major, fixed order
  double grid_init_s = 0.0;
};

std::string pair_name(const api::SolveRequest& request) {
  return std::string(api::to_string(request.options.kernel_spec)) + "." +
         api::to_string(request.options.backend);
}

std::unique_ptr<SolveState> set_up(std::uint64_t seed, Tracer* tracer,
                                   const api::Solver& solver) {
  auto state = std::make_unique<SolveState>();
  auto wind = std::make_shared<grid::WindState>(kDims);
  {
    Span span(tracer, "grid", "grid::init_random");
    const double start = now_s();
    grid::init_random(*wind, seed);
    state->grid_init_s = now_s() - start;
  }
  std::shared_ptr<const advect::PwCoefficients> coefficients;
  {
    Span span(tracer, "engine", "advect::PwCoefficients::from_geometry");
    coefficients = std::make_shared<const advect::PwCoefficients>(
        advect::PwCoefficients::from_geometry(
            grid::Geometry::uniform(kDims, 100.0, 100.0, 50.0)));
  }
  for (const api::Kernel kernel : api::kAllKernels) {
    for (const api::Backend backend : api::kAllBackends) {
      api::SolverOptions options;
      options.backend = backend;
      options.kernel_spec = kernel;
      state->requests.push_back(
          kernel == api::Kernel::kAdvectPw
              ? api::make_request(wind, coefficients, options)
              : api::make_request(wind, options));
    }
  }
  // Warm-up: lazy pools, first-touch pages and allocator growth land here,
  // not in the timed phase.
  for (const api::SolveRequest& request : state->requests) {
    run_until_settled([&] {
      Span span(tracer, "api", "Solver::solve");
      solver.solve(request);
    });
  }
  return state;
}

/// Exact values streamed per field per interior cell, from the engine's
/// own counters in the result's metrics snapshot (absent for engines that
/// gather directly instead of streaming).
std::optional<double> values_per_cell(const api::SolveResult& result) {
  for (const auto& [name, value] : result.metrics.counters) {
    const bool stencil_counter =
        name.size() > 16 &&
        name.compare(name.size() - 16, 16, ".values_streamed") == 0;
    if (stencil_counter || name == "kernel.values_streamed_per_field") {
      return static_cast<double>(value) / static_cast<double>(kDims.cells());
    }
  }
  return std::nullopt;
}

void pool_spawn_probe(Tracer* tracer, RunResult& result) {
  std::vector<double> micros;
  for (std::size_t i = 0; i < kPoolSpawns; ++i) {
    Span span(tracer, "util", "ThreadPool(0)");
    const double start = now_s();
    { util::ThreadPool pool(0); }
    micros.push_back((now_s() - start) * 1e6);
  }
  result.layers["util.pool_spawn_us"] = {median(micros), "us"};
}

}  // namespace

RunResult run_solve(const RunOptions& options) {
  Tracer* tracer = options.tracer;
  RunResult result;
  const api::Solver solver;

  std::vector<double> setup_s;
  std::vector<double> grid_init_s;
  std::unique_ptr<SolveState> state;
  {
    Span span(tracer, "bench", "solve.setup");
    state = repeated_setup(
        [&] {
          const PinToCpu pin(setup_s.size());
          auto made = set_up(options.seed, tracer, solver);
          grid_init_s.push_back(made->grid_init_s);
          return made;
        },
        setup_s);
  }
  const std::vector<api::SolveRequest>& requests = state->requests;

  std::map<api::Kernel, advect::SourceTerms> references;
  {
    Span span(tracer, "bench", "solve.reference");
    for (const api::SolveRequest& request : requests) {
      const api::Kernel kernel = request.options.kernel_spec.kernel();
      if (references.count(kernel) == 0) {
        Span reference(tracer, "engine", "scalar reference");
        references.emplace(kernel, reference_terms(request));
      }
    }
  }

  std::vector<std::vector<ClosedLoopOp>> cycles;
  std::map<std::string, std::vector<double>> pair_ms;
  std::map<std::string, double> pair_values_per_cell;
  {
    Span phase(tracer, "bench", "solve.timed");
    const double start = now_s();
    std::uint64_t request_id = 0;
    do {
      // Each solve spawns its engine's threads afresh, and whether they
      // spread over the CPUs was decided per process on a 4-vCPU KVM
      // guest: some runs went parallel (process CPU 2.5x wall), others
      // stayed on one CPU, moving cpu_ms_per_op by 30%. Every cycle runs
      // on one CPU, the next cycle on the next, so each run places its
      // threads alike and samples every CPU; sharded measures concurrency.
      const PinToCpu pin(cycles.size());
      std::vector<ClosedLoopOp> cycle;
      for (const api::SolveRequest& request : requests) {
        ++request_id;
        ClosedLoopOp op;
        api::SolveResult solved;
        {
          Span span(tracer, "api", "Solver::solve", request_id);
          const double t0 = now_s();
          const double c0 = process_cpu_s();
          solved = solver.solve(request);
          op.cpu_s = process_cpu_s() - c0;
          op.wall_s = now_s() - t0;
          if (!solved.ok()) {
            span.fail();
          }
        }
        {
          Span span(tracer, "bench", "check", request_id);
          const auto& reference =
              references.at(request.options.kernel_spec.kernel());
          op.ok = solved.ok() &&
                  matches_reference(reference, *solved.terms,
                                    uses_f32_path(request.options));
          if (!op.ok) {
            span.fail();
          }
        }
        op.flops = api::total_flops(request.options.kernel_spec, kDims);
        const std::string pair = pair_name(request);
        pair_ms[pair].push_back(op.wall_s * 1e3);
        if (tracer != nullptr && solved.ok() &&
            pair_values_per_cell.count(pair) == 0) {
          if (const auto values = values_per_cell(solved)) {
            pair_values_per_cell[pair] = *values;
          }
        }
        ++result.attempted;
        result.failed += op.ok ? 0 : 1;
        cycle.push_back(op);
      }
      cycles.push_back(std::move(cycle));
    } while (now_s() - start < options.seconds);
  }

  result.end_to_end["setup_s"] = {median(setup_s), "s"};
  closed_loop_metrics(cycles, result);
  result.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MiB"};

  if (tracer != nullptr) {
    for (const auto& [pair, ms] : pair_ms) {
      result.layers["api.solve_ms." + pair] = {median(ms), "ms"};
    }
    for (const auto& [pair, values] : pair_values_per_cell) {
      result.layers["engine.values_per_cell." + pair] = {values, "count"};
    }
    for (const api::Kernel kernel : api::kAllKernels) {
      const KernelTraffic traffic =
          kernel_traffic(api::KernelSpec(kernel), kDims);
      const std::string name = api::to_string(kernel);
      result.layers["engine.bytes_per_cell." + name] = {
          traffic.bytes_per_cell, "B"};
      result.layers["engine.flops_per_byte." + name] = {
          traffic.flops_per_byte, "FLOP/B"};
    }
    pool_spawn_probe(tracer, result);
    result.layers["grid.init_ms"] = {median(grid_init_s) * 1e3, "ms"};
  }
  return result;
}

}  // namespace perfbench
