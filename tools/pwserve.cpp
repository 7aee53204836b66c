// pwserve — replay a synthetic solve-request trace through
// pw::serve::SolveService and report what the service did with it.
//
// The trace is the same deterministic mixed workload the throughput bench
// uses (pw::serve::make_trace): several grid shapes, several backends, and
// a --repeat fraction of requests re-submitting a small set of hot
// payloads, the traffic pattern an operational service sees. The tool
// prints the ServiceReport table (admission counters, cache hits, latency
// percentiles, aggregate GFLOPS) and can write the full report as JSON.
//
//   pwserve                          # 64-request trace, default service
//   pwserve --requests=256 --workers=8 --batch=8 --queue=64
//   pwserve --repeat=0.8 --hot=2     # hotter cache traffic
//   pwserve --nx=64 --ny=48 --nz=32  # single-shape trace
//   pwserve --timeout-ms=50          # per-request deadline
//   pwserve --no-cache --block       # disable result cache; block on full
//   pwserve --json=SERVE_report.json # ServiceReport JSON artefact
//   pwserve --report                 # the same JSON on stdout
//   pwserve --fault-plan=storm.plan  # replay under an armed pw::fault plan
//   pwserve --shards=4               # every solve sharded over 4 devices
//   pwserve --shards=4 --interconnect=d2d   # direct device links
//   pwserve --scheduler=wfq          # admission policy: fifo | edf | wfq
//   pwserve --tenants=3 --zipf=1.1 --arrival=poisson:2000 --diurnal
//                                    # open-loop multi-tenant traffic mode
//   pwserve --traffic="requests=5000,rate=4000,tenants=3,seed=7"
//                                    # replay a canonical traffic string
//
// Traffic mode (any of --traffic / --tenants / --zipf / --arrival /
// --diurnal) replays a pw::serve::traffic workload instead of the closed
// trace: submissions pace themselves to the generated Poisson arrival
// times (open loop — nothing waits for completions), requests carry
// tenant names and priorities, and the report grows a per-tenant table
// (submitted / admitted / shed / completed / p99). The scheduler defaults
// to weighted-fair there (a QoS replay without quotas is just FIFO with
// extra steps); quota sheds complete kQueueFull and are itemised, not
// counted as failures. The canonical spec string is echoed so any run can
// be replayed exactly via --traffic=.
//
// With --shards=N the service runs every solve on one resident
// pw::shard::ShardedSolver over N simulated device instances
// (ServiceConfig::shard); every other flag applies unchanged. After the
// service table the tool prints the final partition and the solver's
// device deaths and CPU-rung failovers. Combine with --fault-plan arming
// `shard.<i>.*` sites to watch a device die mid-replay: the solve that
// loses it re-partitions over the survivors, and it and every later solve
// complete degraded (bit-exact; cached like any other answer).
// --interconnect=pcie|d2d picks the modelled halo-exchange topology.
//
// With --fault-plan=FILE the file is parsed as a pw::fault plan (see
// docs/fault_injection.md for the line format), armed for the duration of
// the replay, and the tool appends the injector's report — faults fired,
// per-site breakdown, the reproducible schedule string — plus the service's
// resilience counters (retries, failovers, degraded results).
//
// Exit status: 0 when every admitted request completed ok, 1 when any
// request failed or was rejected — rejections are typed (queue-full,
// deadline, lint) and itemised in the table either way. Requests served
// degraded (failover to the CPU baseline, or a sharded solve over the
// surviving devices) count as ok: the answer is correct, only the
// execution strategy changed.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pw/api/request.hpp"
#include "pw/fault/injector.hpp"
#include "pw/serve/service.hpp"
#include "pw/serve/trace.hpp"
#include "pw/serve/traffic.hpp"
#include "pw/shard/sharded_solver.hpp"
#include "pw/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pw;
  const util::Cli cli(argc, argv);

  if (cli.has("help")) {
    std::cout
        << "usage: pwserve [--requests=N] [--workers=N] [--batch=N]\n"
        << "               [--queue=N] [--repeat=F] [--hot=N] [--seed=N]\n"
        << "               [--nx=N --ny=N --nz=N] [--timeout-ms=N]\n"
        << "               [--kernels=advect_pw,diffusion,poisson_jacobi]\n"
        << "               [--no-cache] [--block] [--json=FILE] [--report]\n"
        << "               [--fault-plan=FILE]\n"
        << "               [--shards=N [--interconnect=pcie|d2d]]\n"
        << "               [--scheduler=fifo|edf|wfq]\n"
        << "               [--tenants=N] [--zipf=S] [--catalogue=N]\n"
        << "               [--arrival=poisson:RATE_HZ] [--diurnal]\n"
        << "               [--traffic=SPEC]\n";
    return 0;
  }

  // --fault-plan=FILE: arm a fault-injection plan for the replay. Parsed
  // before the service is built so a bad plan fails fast.
  std::unique_ptr<fault::FaultInjector> injector;
  if (const auto plan_path = cli.get("fault-plan")) {
    std::ifstream in(*plan_path);
    if (!in) {
      std::cerr << "pwserve: cannot read fault plan " << *plan_path << '\n';
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    fault::FaultPlan plan;
    std::string error;
    if (!fault::parse_plan(text.str(), plan, error)) {
      std::cerr << "pwserve: " << *plan_path << ": " << error << '\n';
      return 1;
    }
    injector = std::make_unique<fault::FaultInjector>(plan);
  }

  serve::TraceSpec spec;
  spec.requests = static_cast<std::size_t>(cli.get_int("requests", 64));
  spec.repeat_fraction = cli.get_double("repeat", 0.5);
  spec.hot_payloads = static_cast<std::size_t>(cli.get_int("hot", 4));
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  if (cli.has("nx") || cli.has("ny") || cli.has("nz")) {
    spec.shapes = {{static_cast<std::size_t>(cli.get_int("nx", 32)),
                    static_cast<std::size_t>(cli.get_int("ny", 32)),
                    static_cast<std::size_t>(cli.get_int("nz", 16))}};
  }
  const long long timeout_ms = cli.get_int("timeout-ms", 0);
  if (timeout_ms > 0) {
    spec.timeout = std::chrono::milliseconds(timeout_ms);
  }
  // --kernels=a,b,c: mix stencil kernels into the trace. Default stays
  // advection-only, matching the pre-stencil behaviour of every flag set.
  if (const auto kernels_flag = cli.get("kernels")) {
    spec.kernels.clear();
    std::string name;
    for (char c : *kernels_flag + ",") {
      if (c == ',') {
        if (!name.empty()) {
          const auto kernel = api::parse_kernel(name);
          if (!kernel) {
            std::cerr << "pwserve: unknown kernel '" << name
                      << "' (choose from advect_pw, diffusion, "
                         "poisson_jacobi)\n";
            return 1;
          }
          spec.kernels.push_back(*kernel);
          name.clear();
        }
      } else {
        name += c;
      }
    }
    if (spec.kernels.empty()) {
      std::cerr << "pwserve: --kernels lists no kernels\n";
      return 1;
    }
  }

  // --scheduler=fifo|edf|wfq: the admission policy.
  std::optional<serve::sched::Policy> scheduler_flag;
  if (const auto name = cli.get("scheduler")) {
    scheduler_flag = serve::sched::parse_policy(*name);
    if (!scheduler_flag) {
      std::cerr << "pwserve: unknown scheduler '" << *name
                << "' (choose from fifo, edf, wfq)\n";
      return 1;
    }
  }

  const bool traffic_mode = cli.has("traffic") || cli.has("tenants") ||
                            cli.has("zipf") || cli.has("arrival") ||
                            cli.has("diurnal");

  // --shards=N: every solve runs on one sharded solver over N simulated
  // devices, behind the same service.
  std::optional<shard::ShardOptions> shard_options;
  if (cli.has("shards")) {
    shard_options.emplace();
    shard_options->devices =
        static_cast<std::size_t>(cli.get_int("shards", 2));
    if (const auto name = cli.get("interconnect")) {
      const auto parsed = shard::parse_interconnect(*name);
      if (!parsed) {
        std::cerr << "pwserve: unknown interconnect '" << *name
                  << "' (expected pcie or d2d)\n";
        return 1;
      }
      shard_options->interconnect.kind = *parsed;
    }
  }

  // Traffic mode carries its own arrival clock; trace mode submits a
  // closed batch. Both paths produce (requests, futures, tags) and share
  // the reporting tail below.
  std::vector<api::SolveRequest> requests;
  std::vector<double> arrivals;  ///< non-empty = open-loop pacing
  std::string traffic_echo;
  if (traffic_mode) {
    serve::TrafficSpec traffic_spec;
    if (const auto text = cli.get("traffic")) {
      const auto parsed = serve::parse_traffic(*text);
      if (!parsed) {
        std::cerr << "pwserve: malformed --traffic spec '" << *text << "'\n";
        return 1;
      }
      traffic_spec = *parsed;
    } else {
      traffic_spec.requests = spec.requests;
      traffic_spec.trace.seed = spec.seed;
      traffic_spec.trace.timeout = spec.timeout;
      traffic_spec.tenants = serve::default_tenant_mix(3);
    }
    // Individual flags override whatever the spec string carried; the
    // content knobs (shapes/kernels/chunking) always ride the trace flags.
    traffic_spec.trace.shapes = spec.shapes;
    traffic_spec.trace.kernels = spec.kernels;
    traffic_spec.trace.chunk_y = spec.chunk_y;
    if (cli.has("requests")) {
      traffic_spec.requests = spec.requests;
    }
    if (cli.has("seed")) {
      traffic_spec.trace.seed = spec.seed;
    }
    if (timeout_ms > 0) {
      traffic_spec.trace.timeout = spec.timeout;
    }
    if (cli.has("tenants")) {
      traffic_spec.tenants = serve::default_tenant_mix(
          static_cast<std::size_t>(cli.get_int("tenants", 3)));
    }
    if (cli.has("zipf")) {
      traffic_spec.zipf_s = cli.get_double("zipf", traffic_spec.zipf_s);
    }
    if (cli.has("catalogue")) {
      traffic_spec.catalogue = static_cast<std::size_t>(
          cli.get_int("catalogue", static_cast<long long>(
                                       traffic_spec.catalogue)));
    }
    if (const auto arrival = cli.get("arrival")) {
      const std::string prefix = "poisson:";
      if (arrival->rfind(prefix, 0) != 0) {
        std::cerr << "pwserve: --arrival expects poisson:RATE_HZ, got '"
                  << *arrival << "'\n";
        return 1;
      }
      try {
        traffic_spec.arrival_rate_hz =
            std::stod(arrival->substr(prefix.size()));
      } catch (const std::exception&) {
        std::cerr << "pwserve: malformed --arrival rate in '" << *arrival
                  << "'\n";
        return 1;
      }
    }
    if (cli.has("diurnal")) {
      traffic_spec.diurnal = cli.get_bool("diurnal", true);
    }
    traffic_echo = serve::to_string(traffic_spec);
    const std::vector<serve::TimedRequest> traffic =
        serve::make_traffic(traffic_spec);
    requests.reserve(traffic.size());
    arrivals.reserve(traffic.size());
    for (const serve::TimedRequest& timed : traffic) {
      requests.push_back(timed.request);
      arrivals.push_back(timed.arrival_s);
    }
  } else {
    requests = serve::make_trace(spec);
  }

  serve::ServiceConfig config;
  // Traffic mode defaults to a bounded 512-slot queue (overload sheds by
  // quota, the point of the exercise); trace mode keeps the never-sheds
  // default of one slot per request.
  config.queue_capacity = static_cast<std::size_t>(cli.get_int(
      "queue", traffic_mode ? 512
                            : static_cast<long long>(requests.size())));
  config.workers_per_backend =
      static_cast<std::size_t>(cli.get_int("workers", 4));
  config.max_batch = static_cast<std::size_t>(cli.get_int("batch", 8));
  config.result_cache = !cli.get_bool("no-cache", false);
  config.block_when_full = cli.get_bool("block", false);
  config.scheduler = scheduler_flag.value_or(
      traffic_mode ? serve::sched::Policy::kWeightedFair
                   : serve::sched::Policy::kFifo);
  config.shard = shard_options;

  serve::SolveService service(config);

  std::size_t failed = 0;
  std::size_t shed = 0;
  std::size_t degraded = 0;
  {
    // The plan stays armed only while requests are in flight: parsing,
    // reporting and JSON emission below run fault-free.
    std::unique_ptr<fault::ScopedArm> arm;
    if (injector) {
      arm = std::make_unique<fault::ScopedArm>(*injector);
    }
    std::vector<api::SolveFuture> futures;
    if (arrivals.empty()) {
      futures = service.submit_all(requests);
    } else {
      // Open loop: pace each submission to its generated arrival time
      // (sleeping only when meaningfully ahead), never wait on results.
      futures.reserve(requests.size());
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto due =
            start +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(arrivals[i]));
        if (due - std::chrono::steady_clock::now() >
            std::chrono::microseconds(200)) {
          std::this_thread::sleep_until(due);
        }
        futures.push_back(service.submit(std::move(requests[i])));
      }
    }
    service.drain();

    for (std::size_t i = 0; i < futures.size(); ++i) {
      const api::SolveResult& result = futures[i].wait();
      if (result.ok()) {
        if (result.degraded) {
          ++degraded;
        }
        continue;
      }
      if (traffic_mode && result.error == api::SolveError::kQueueFull) {
        ++shed;  // quota shedding under offered overload: itemised, not
        continue;  // a failure — the report carries the per-tenant split
      }
      ++failed;
      std::cerr << "pwserve: request " << i << ": "
                << api::describe(result.error)
                << (result.message.empty() ? "" : " — " + result.message)
                << '\n';
    }
  }

  const serve::ServiceReport report = service.report();
  serve::to_table(report).print(std::cout);
  if (shard::ShardedSolver* solver = service.sharded_solver()) {
    const shard::ShardRunReport& last = solver->last_report();
    std::cout << "partition: " << last.px << "x" << last.py << " over "
              << last.devices_used << " of " << solver->options().devices
              << " devices, interconnect "
              << shard::to_string(solver->options().interconnect.kind)
              << '\n';
    std::cout << "shard: " << solver->metrics().counter("shard.deaths")
              << " device deaths, "
              << solver->metrics().counter("shard.cpu_failovers")
              << " solves on the CPU rung\n";
  }
  if (!report.tenants.empty() &&
      (traffic_mode || report.tenants.size() > 1)) {
    util::Table tenants("per-tenant admission and latency");
    tenants.header(
        {"tenant", "submitted", "admitted", "shed", "completed", "p99 [ms]"});
    for (const serve::TenantReportRow& row : report.tenants) {
      tenants.row({row.tenant, std::to_string(row.submitted),
                   std::to_string(row.admitted), std::to_string(row.shed),
                   std::to_string(row.completed),
                   util::format_double(row.p99_latency_s * 1e3, 3)});
    }
    tenants.print(std::cout);
  }
  if (traffic_mode) {
    std::cout << "traffic (replay with --traffic=): " << traffic_echo
              << '\n';
    std::cout << "scheduler " << serve::sched::to_string(report.scheduler)
              << ": " << shed << " of " << requests.size()
              << " requests shed under quota, " << report.sheds_unfair
              << " unfair sheds (must be 0)\n";
  }
  std::cout << "resilience: " << report.retries << " retries ("
            << report.retry_recovered << " recovered), " << report.failovers
            << " failovers, " << degraded << " of " << requests.size()
            << " requests served degraded\n";
  if (failed != 0) {
    std::cout << failed << " of " << requests.size()
              << " requests did not complete ok\n";
  }

  if (injector) {
    const fault::FaultReport faults = injector.get()->report();
    std::cout << "fault plan: " << faults.injected << " faults injected over "
              << faults.checks << " hook checks\n";
    for (const auto& [site, count] : faults.by_site) {
      std::cout << "  " << site << ": " << count << '\n';
    }
    std::cout << "fault schedule (seed-reproducible): "
              << (faults.schedule().empty() ? "<empty>" : faults.schedule())
              << '\n';
  }

  if (const auto json_path = cli.get("json")) {
    std::ofstream out(*json_path);
    out << serve::to_json(report);
    if (!out) {
      std::cerr << "pwserve: cannot write " << *json_path << '\n';
      return 1;
    }
    std::cout << "report: " << *json_path << '\n';
  }
  if (cli.get_bool("report", false)) {
    std::cout << serve::to_json(report) << '\n';
  }
  return failed == 0 ? 0 : 1;
}
