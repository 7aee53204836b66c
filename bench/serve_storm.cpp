// The QoS storm: a 10^5-request open-loop, multi-tenant, mixed-kernel
// workload (Poisson arrivals, Zipf-popular scenario catalogue, one
// deliberately hoggish tenant) driven twice through a weighted-fair
// SolveService —
//
//   clean    no fault plan armed
//   faulted  an armed pw::fault plan: spurious latency and forced sheds at
//            serve.sched.push, transfer failures under serve.solve.* (the
//            retry / breaker / failover ladder runs mid-storm)
//
// and the SLO + invariant gauges check_bench_json.py gates on
// BENCH_storm.json:
//
//   storm.bench.p99_ms / p999_ms      served latency, clean storm
//   storm.bench.p99_ms_faulted        served latency with the plan armed
//   storm.bench.shed_fairness         1.0 iff the scheduler audit counted
//                                     zero unfair sheds in either storm
//                                     (a within-quota tenant shed while a
//                                     hog stayed admitted)
//   storm.bench.cache_within_cap      1.0 iff the tiered result cache's
//                                     peak bytes never exceeded its cap
//   storm.bench.requests              the offered request count (>= 1e5)
//
// Grids are small on purpose: the storm measures the serve tier (admission,
// scheduling, shedding, caching, coalescing) under throughput, not kernel
// FLOPs — perfbench's `serve` and `solve` workloads time the solves.
//
// Flags: --requests=N --rate=HZ --catalogue=N --zipf=S --capacity=N
//        --workers=N --batch=N --cache_mb=N --seed=N --csv=PATH --json=PATH
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pw/api/request.hpp"
#include "pw/fault/injector.hpp"
#include "pw/serve/service.hpp"
#include "pw/serve/traffic.hpp"
#include "pw/util/cli.hpp"
#include "pw/util/timer.hpp"

namespace {

struct StormOutcome {
  pw::serve::ServiceReport report;
  pw::serve::TieredCacheStats cache;
  pw::serve::sched::Audit audit;
  double wall_s = 0.0;
};

/// Replays the traffic open-loop: submission paces to each arrival time
/// (sleeping only when meaningfully ahead) and never waits on completions.
StormOutcome run_storm(const pw::serve::TrafficSpec& spec,
                       const pw::serve::ServiceConfig& config,
                       const std::vector<pw::serve::TimedRequest>& traffic) {
  using namespace pw;
  serve::SolveService service(config);
  util::WallTimer timer;
  const auto start = std::chrono::steady_clock::now();
  for (const serve::TimedRequest& timed : traffic) {
    const auto due =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(timed.arrival_s));
    if (due - std::chrono::steady_clock::now() > std::chrono::microseconds(200)) {
      std::this_thread::sleep_until(due);
    }
    service.submit(timed.request);  // open loop: the future is dropped
  }
  service.drain();
  StormOutcome outcome;
  outcome.wall_s = timer.seconds();
  outcome.report = service.report();
  outcome.cache = service.cache_stats().value_or(serve::TieredCacheStats{});
  outcome.audit = service.scheduler().audit();
  service.shutdown(true);
  (void)spec;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pw;
  const util::Cli cli(argc, argv);

  // The workload: >= 1e5 requests, three tenants (tenant-2 is the hog:
  // triple arrival share, batch priority, same quota weight as everyone
  // else), Zipf-popular scenarios over every kernel and backend mix.
  serve::TrafficSpec spec;
  spec.requests = static_cast<std::size_t>(cli.get_int("requests", 100000));
  spec.arrival_rate_hz = cli.get_double("rate", 50000.0);
  spec.diurnal = cli.get_int("diurnal", 1) != 0;
  spec.diurnal_amplitude = 0.5;
  spec.diurnal_period_s = 1.0;
  spec.zipf_s = cli.get_double("zipf", 1.1);
  spec.catalogue = static_cast<std::size_t>(cli.get_int("catalogue", 384));
  spec.tenants = {
      {"tenant-0", 1.0, api::Priority::kInteractive},
      {"tenant-1", 1.0, api::Priority::kNormal},
      {"tenant-2", 3.0, api::Priority::kBatch},  // the hog
  };
  spec.trace.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  spec.trace.shapes = {{8, 8, 8}, {12, 12, 8}};
  spec.trace.kernels = {api::Kernel::kAdvectPw, api::Kernel::kDiffusion,
                        api::Kernel::kPoissonJacobi};
  const std::vector<serve::TimedRequest> traffic = serve::make_traffic(spec);

  serve::ServiceConfig config;
  config.scheduler = serve::sched::Policy::kWeightedFair;
  config.queue_capacity =
      static_cast<std::size_t>(cli.get_int("capacity", 512));
  config.block_when_full = false;  // overload sheds, never stalls arrivals
  config.workers_per_backend =
      static_cast<std::size_t>(cli.get_int("workers", 4));
  config.max_batch = static_cast<std::size_t>(cli.get_int("batch", 16));
  // The byte cap is deliberately below what the entry caps could pin
  // (catalogue scenarios at ~25 KiB each), so byte-pressure evictions run
  // all storm long and the peak<=cap invariant is genuinely exercised.
  config.result_cache_capacity = 256;
  config.result_cache_bytes =
      static_cast<std::size_t>(cli.get_int("cache_mb", 4)) << 20;

  const StormOutcome clean = run_storm(spec, config, traffic);

  // The same storm with the fault plan armed: occasional slow admissions,
  // rare forced sheds at the push site, and a 1% transfer-failure rate
  // under the reference backend so the resilience ladder runs hot.
  fault::FaultPlan plan;
  plan.seed = spec.trace.seed;
  plan.rules.push_back({"serve.sched.push", fault::FaultKind::kSpuriousLatency,
                        0.001, 0, std::numeric_limits<std::uint64_t>::max(),
                        200e-6});
  plan.rules.push_back({"serve.sched.push", fault::FaultKind::kTransferFailure,
                        0.0005});
  plan.rules.push_back({"serve.solve.reference",
                        fault::FaultKind::kTransferFailure, 0.01});
  fault::FaultInjector injector(plan);
  StormOutcome faulted;
  {
    fault::ScopedArm arm(injector);
    faulted = run_storm(spec, config, traffic);
  }
  const fault::FaultReport fault_report = injector.report();

  const double p99_ms = clean.report.latency_s.p99 * 1e3;
  const double p999_ms = clean.report.latency_s.p999 * 1e3;
  const double p99_faulted_ms = faulted.report.latency_s.p99 * 1e3;
  const std::uint64_t unfair =
      clean.audit.unfair_sheds + faulted.audit.unfair_sheds;
  const double shed_fairness = unfair == 0 ? 1.0 : 0.0;
  const bool clean_within = clean.cache.peak_bytes <= clean.cache.byte_cap;
  const bool faulted_within =
      faulted.cache.peak_bytes <= faulted.cache.byte_cap;
  const double cache_within_cap = clean_within && faulted_within ? 1.0 : 0.0;

  util::Table table("QoS storm: " + std::to_string(spec.requests) +
                    " open-loop requests, weighted-fair scheduler");
  table.header({"storm", "wall [s]", "completed", "shed", "cache hits",
                "evictions", "p99 [ms]", "p999 [ms]"});
  const auto storm_row = [&](const char* name, const StormOutcome& o) {
    table.row({name, util::format_double(o.wall_s, 2),
               std::to_string(o.report.completed),
               std::to_string(o.report.rejected_backpressure +
                              o.report.shed_quota),
               std::to_string(o.report.result_cache_hits),
               std::to_string(o.cache.evictions),
               util::format_double(o.report.latency_s.p99 * 1e3, 3),
               util::format_double(o.report.latency_s.p999 * 1e3, 3)});
  };
  storm_row("clean", clean);
  storm_row("faulted", faulted);
  const int status = bench::emit(table, cli);

  std::cout << "shed fairness " << util::format_double(shed_fairness, 1)
            << " (unfair sheds: " << unfair << "), cache peak "
            << clean.cache.peak_bytes << " / cap " << clean.cache.byte_cap
            << " bytes, " << fault_report.injected
            << " faults injected in the faulted storm\n";
  for (const serve::TenantReportRow& tenant : clean.report.tenants) {
    std::cout << "  " << tenant.tenant << ": submitted " << tenant.submitted
              << ", admitted " << tenant.admitted << ", shed " << tenant.shed
              << ", p99 "
              << util::format_double(tenant.p99_latency_s * 1e3, 3) << " ms\n";
  }

  obs::MetricsRegistry registry;
  registry.gauge_set("storm.bench.requests",
                     static_cast<double>(spec.requests));
  registry.gauge_set("storm.bench.rate_hz", spec.arrival_rate_hz);
  registry.gauge_set("storm.bench.wall_s", clean.wall_s);
  registry.gauge_set("storm.bench.wall_s_faulted", faulted.wall_s);
  registry.gauge_set("storm.bench.p99_ms", p99_ms);
  registry.gauge_set("storm.bench.p999_ms", p999_ms);
  registry.gauge_set("storm.bench.p99_ms_faulted", p99_faulted_ms);
  registry.gauge_set("storm.bench.shed_fairness", shed_fairness);
  registry.gauge_set("storm.bench.cache_within_cap", cache_within_cap);
  registry.gauge_set("storm.bench.completed",
                     static_cast<double>(clean.report.completed));
  registry.gauge_set("storm.bench.shed",
                     static_cast<double>(clean.report.rejected_backpressure +
                                         clean.report.shed_quota));
  registry.gauge_set("storm.bench.cache_hits",
                     static_cast<double>(clean.report.result_cache_hits));
  registry.gauge_set("storm.bench.cache_evictions",
                     static_cast<double>(clean.cache.evictions));
  registry.gauge_set("storm.bench.cache_peak_bytes",
                     static_cast<double>(clean.cache.peak_bytes));
  registry.gauge_set("storm.bench.faults_injected",
                     static_cast<double>(fault_report.injected));
  for (const serve::TenantReportRow& tenant : clean.report.tenants) {
    registry.gauge_set("storm.bench.tenant." + tenant.tenant + ".admitted",
                       static_cast<double>(tenant.admitted));
    registry.gauge_set("storm.bench.tenant." + tenant.tenant + ".shed",
                       static_cast<double>(tenant.shed));
  }
  const int json_status =
      bench::emit_registry(registry, "BENCH_storm.json", cli);
  return status != 0 ? status : json_status;
}
