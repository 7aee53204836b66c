// `sharded`: a closed loop with one caller. Each cycle sends advect_pw,
// diffusion and a 16-sweep poisson_jacobi through shard::ShardedSolver over
// 4 simulated devices (a 96x96x32 grid split 2x2 into 48x48x32 tiles) on
// the reference backend: one single-threaded pass per shard. Scatter and
// gather, one halo exchange per sweep and one thread spawn per shard per
// sweep run only here.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "pw/shard/sharded_solver.hpp"
#include "pw/stencil/advect.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pw;

constexpr grid::GridDims kDims{96, 96, 32};
constexpr grid::GridDims kTile{48, 48, 32};
constexpr std::size_t kDevices = 4;
constexpr std::size_t kPoissonSweeps = 16;
constexpr std::size_t kTilePasses = 9;

struct ShardedState {
  std::vector<api::SolveRequest> requests;  ///< one per kernel
  std::unique_ptr<shard::ShardedSolver> solver;
  double grid_init_s = 0.0;
};

std::shared_ptr<const advect::PwCoefficients> coefficients_for(
    const grid::GridDims& dims) {
  return std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(
          grid::Geometry::uniform(dims, 100.0, 100.0, 50.0)));
}

std::unique_ptr<ShardedState> set_up(std::uint64_t seed, Tracer* tracer) {
  auto state = std::make_unique<ShardedState>();
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
    coefficients = coefficients_for(kDims);
  }
  for (const api::Kernel kernel : api::kAllKernels) {
    api::SolverOptions options;
    options.backend = api::Backend::kReference;
    options.kernel_spec = kernel;
    if (kernel == api::Kernel::kPoissonJacobi) {
      api::PoissonOptions poisson;
      poisson.iterations = kPoissonSweeps;
      options.kernel_spec = poisson;
    }
    state->requests.push_back(
        kernel == api::Kernel::kAdvectPw
            ? api::make_request(wind, coefficients, options)
            : api::make_request(wind, options));
  }
  {
    Span span(tracer, "shard", "ShardedSolver::ShardedSolver");
    shard::ShardOptions options;
    options.devices = kDevices;
    state->solver = std::make_unique<shard::ShardedSolver>(options);
  }
  for (const api::SolveRequest& request : state->requests) {
    run_until_settled([&] {
      Span span(tracer, "shard", "ShardedSolver::solve");
      state->solver->solve(request);
    });
  }
  return state;
}

/// stencil.tile_pass_ms.<kernel>: one single-threaded reference pass over
/// one shard-sized tile, the unit of work each shard thread runs per sweep.
void tile_pass_probe(std::uint64_t seed, Tracer* tracer, RunResult& result) {
  grid::WindState tile(kTile);
  grid::init_random(tile, seed);
  advect::SourceTerms out(kTile);
  const auto coefficients = coefficients_for(kTile);
  stencil::EngineConfig engine;
  engine.engine = stencil::Engine::kReference;
  for (const api::Kernel kernel : api::kAllKernels) {
    std::vector<double> ms;
    for (std::size_t i = 0; i < kTilePasses; ++i) {
      Span span(tracer, "engine", "stencil::run_pass");
      const double start = now_s();
      switch (kernel) {
        case api::Kernel::kAdvectPw:
          stencil::run_pass(stencil::advect_spec(), tile, out,
                            stencil::AdvectOp(*coefficients, kTile.nz),
                            engine);
          break;
        case api::Kernel::kDiffusion:
          stencil::run_pass(stencil::diffusion_spec(), tile, out,
                            stencil::DiffusionOp(api::DiffusionOptions{}),
                            engine);
          break;
        case api::Kernel::kPoissonJacobi:
          stencil::run_poisson_sweep(tile, api::PoissonOptions{}, out,
                                     engine);
          break;
      }
      ms.push_back((now_s() - start) * 1e3);
    }
    result.layers[std::string("stencil.tile_pass_ms.") +
                  api::to_string(kernel)] = {median(ms), "ms"};
  }
}

}  // namespace

RunResult run_sharded(const RunOptions& options) {
  Tracer* tracer = options.tracer;
  RunResult result;

  std::vector<double> setup_s;
  std::vector<double> grid_init_s;
  std::unique_ptr<ShardedState> state;
  {
    Span span(tracer, "bench", "sharded.setup");
    state = repeated_setup(
        [&] {
          auto made = set_up(options.seed, tracer);
          grid_init_s.push_back(made->grid_init_s);
          return made;
        },
        setup_s);
  }
  shard::ShardedSolver& solver = *state->solver;

  std::vector<advect::SourceTerms> references;
  {
    Span span(tracer, "bench", "sharded.reference");
    for (const api::SolveRequest& request : state->requests) {
      Span reference(tracer, "engine", "scalar reference");
      references.push_back(reference_terms(request));
    }
  }

  std::vector<std::vector<ClosedLoopOp>> cycles;
  std::map<std::string, std::vector<double>> solve_ms;
  std::vector<double> exchange_ms;
  std::vector<double> overlap;
  std::vector<double> imbalance;
  double halo_bytes = 0.0;
  double halo_messages = 0.0;
  double exchanges = 0.0;
  {
    Span phase(tracer, "bench", "sharded.timed");
    const double start = now_s();
    std::uint64_t request_id = 0;
    do {
      std::vector<ClosedLoopOp> cycle;
      for (std::size_t r = 0; r < state->requests.size(); ++r) {
        const api::SolveRequest& request = state->requests[r];
        ++request_id;
        ClosedLoopOp op;
        api::SolveResult solved;
        {
          Span span(tracer, "shard", "ShardedSolver::solve", request_id);
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
          op.ok = solved.ok() &&
                  matches_reference(references[r], *solved.terms, false);
          if (!op.ok) {
            span.fail();
          }
        }
        op.flops = api::total_flops(request.options.kernel_spec, kDims);
        ++result.attempted;
        result.failed += op.ok ? 0 : 1;
        cycle.push_back(op);

        const shard::ShardRunReport& report = solver.last_report();
        solve_ms[api::to_string(request.options.kernel_spec)].push_back(
            op.wall_s * 1e3);
        exchange_ms.push_back(report.exchange_wall_s * 1e3);
        if (report.devices_used > 0 && op.wall_s > 0.0 &&
            report.sum_shard_cpu_s > 0.0) {
          const double used = static_cast<double>(report.devices_used);
          overlap.push_back(report.sum_shard_cpu_s / (used * op.wall_s));
          imbalance.push_back(report.max_shard_cpu_s /
                              (report.sum_shard_cpu_s / used));
        }
        if (cycles.empty()) {
          halo_bytes += static_cast<double>(report.halo_bytes);
          halo_messages += static_cast<double>(report.halo_messages);
          exchanges += static_cast<double>(report.exchanges);
        }
      }
      cycles.push_back(std::move(cycle));
    } while (now_s() - start < options.seconds);
  }

  result.end_to_end["setup_s"] = {median(setup_s), "s"};
  closed_loop_metrics(cycles, result);
  result.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MiB"};

  if (tracer != nullptr) {
    const double per_cycle = static_cast<double>(state->requests.size());
    for (const auto& [kernel, ms] : solve_ms) {
      result.layers["shard.solve_ms." + kernel] = {median(ms), "ms"};
    }
    result.layers["shard.halo_bytes_per_solve"] = {halo_bytes / per_cycle,
                                                   "B"};
    result.layers["shard.halo_messages_per_solve"] = {
        halo_messages / per_cycle, "count"};
    result.layers["shard.exchanges_per_solve"] = {exchanges / per_cycle,
                                                  "count"};
    result.layers["shard.exchange_ms"] = {mean(exchange_ms), "ms"};
    result.layers["shard.overlap"] = {median(overlap), "ratio"};
    result.layers["shard.imbalance"] = {median(imbalance), "ratio"};
    tile_pass_probe(options.seed, tracer, result);
    result.layers["grid.init_ms"] = {median(grid_init_s) * 1e3, "ms"};
  }
  return result;
}

}  // namespace perfbench
