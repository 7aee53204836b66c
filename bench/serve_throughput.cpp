// Serving-layer throughput: the same synthetic request trace replayed two
// ways on this host —
//
//   sequential  one blocking Solver::solve per request, in order
//               (a fresh solver per request, as a naive caller would do)
//   service     pw::serve::SolveService with admission, same-plan batching,
//               per-backend worker pools and the content-addressed result
//               cache
//
// and the aggregate speedup between them. Be clear about where the speedup
// comes from: the trace repeats hot payloads (--repeat fraction, default
// 0.7 — the "popular tile" pattern), so the service answers repeated
// requests from its result cache and amortises per-solve setup (thread
// pools, admission lint) across the stream, while the sequential baseline
// recomputes every request from scratch. On a many-core host concurrent
// workers add further overlap; on a single-core host the cache and
// amortisation carry the win. The printed table splits computed requests
// from cache hits so the contribution is visible, and the registry artefact
// (default BENCH_serve.json, --json=<path>) records both runs plus the
// service's own latency/batch histograms for check_bench_json.py.
//
// Flags: --requests=N --workers=N --batch=N --repeat=F --seed=N
//        --csv=PATH --json=PATH
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pw/advect/flops.hpp"
#include "pw/api/request.hpp"
#include "pw/serve/service.hpp"
#include "pw/serve/trace.hpp"
#include "pw/util/cli.hpp"
#include "pw/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace pw;
  const util::Cli cli(argc, argv);

  serve::TraceSpec spec;
  spec.requests = static_cast<std::size_t>(cli.get_int("requests", 96));
  spec.repeat_fraction = cli.get_double("repeat", 0.8);
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  // Grids large enough that a solve costs milliseconds (so the measured
  // ratio reflects serving, not dispatch overhead on toy grids), and a
  // small hot set so the repeat traffic actually collides in the cache.
  spec.shapes = {{48, 48, 32}, {64, 48, 32}};
  spec.hot_payloads = 2;
  const auto trace = serve::make_trace(spec);

  obs::MetricsRegistry registry;

  // Sequential baseline: one blocking solve per request, no reuse of
  // anything between requests.
  util::WallTimer sequential_timer;
  std::uint64_t sequential_flops = 0;
  for (const api::SolveRequest& request : trace) {
    const api::SolveResult result =
        api::Solver(request.options).solve(request);
    if (!result.ok()) {
      std::cerr << "sequential solve failed (" << request.tag
                << "): " << result.message << "\n";
      return 1;
    }
    sequential_flops +=
        advect::total_flops(request.state->u.dims());
  }
  const double sequential_s = sequential_timer.seconds();

  // The same trace through the service.
  serve::ServiceConfig config;
  config.workers_per_backend =
      static_cast<std::size_t>(cli.get_int("workers", 8));
  config.max_batch = static_cast<std::size_t>(cli.get_int("batch", 8));
  config.queue_capacity = spec.requests;
  config.metrics = &registry;
  serve::SolveService service(config);

  util::WallTimer service_timer;
  auto futures = service.submit_all(trace);
  service.drain();
  const double service_s = service_timer.seconds();
  for (auto& future : futures) {
    if (!future.wait().ok()) {
      std::cerr << "served solve failed: " << future.wait().message << "\n";
      return 1;
    }
  }
  const serve::ServiceReport report = service.report();

  const double speedup = sequential_s / service_s;
  const double sequential_gflops =
      static_cast<double>(sequential_flops) / sequential_s / 1e9;
  const double service_gflops =
      static_cast<double>(sequential_flops) / service_s / 1e9;

  util::Table table("Serving throughput: " + std::to_string(spec.requests) +
                    "-request trace, repeat fraction " +
                    util::format_double(spec.repeat_fraction, 2));
  table.header({"mode", "seconds", "req/s", "GFLOPS (served)", "computed",
                "cache hits", "speedup"});
  table.row({"sequential solve()", util::format_double(sequential_s, 3),
             util::format_double(spec.requests / sequential_s, 1),
             util::format_double(sequential_gflops, 2),
             std::to_string(spec.requests), "0", "1.00x"});
  table.row({"SolveService", util::format_double(service_s, 3),
             util::format_double(spec.requests / service_s, 1),
             util::format_double(service_gflops, 2),
             std::to_string(report.computed),
             std::to_string(report.result_cache_hits),
             util::format_double(speedup, 2) + "x"});
  const int status = bench::emit(table, cli);
  std::cout << "p50/p95/p99 served latency: "
            << util::format_double(report.latency_s.p50 * 1e3, 2) << " / "
            << util::format_double(report.latency_s.p95 * 1e3, 2) << " / "
            << util::format_double(report.latency_s.p99 * 1e3, 2)
            << " ms; mean batch "
            << util::format_double(report.batch_size.mean, 2) << "\n";

  // Both runs land in the registry artefact next to the service's own
  // serve.* metrics (latency/batch histograms, admission counters).
  registry.gauge_set("serve.bench.requests",
                     static_cast<double>(spec.requests));
  registry.gauge_set("serve.bench.repeat_fraction", spec.repeat_fraction);
  registry.gauge_set("serve.bench.sequential_s", sequential_s);
  registry.gauge_set("serve.bench.service_s", service_s);
  registry.gauge_set("serve.bench.sequential_gflops", sequential_gflops);
  registry.gauge_set("serve.bench.service_gflops", service_gflops);
  registry.gauge_set("serve.bench.speedup", speedup);
  registry.gauge_set("serve.bench.computed",
                     static_cast<double>(report.computed));
  registry.gauge_set("serve.bench.cache_hits",
                     static_cast<double>(report.result_cache_hits));
  const int json_status =
      bench::emit_registry(registry, "BENCH_serve.json", cli);
  return status != 0 ? status : json_status;
}
