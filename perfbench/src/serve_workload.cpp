// `serve`: an open loop, one generator thread. Poisson arrivals at a
// constant 2,000 req/s from three weighted-fair tenants, drawn Zipf(1.1)
// from a 384-scenario catalogue of tiny grids, into one SolveService with
// one worker per backend pool. On grids this small the engines are cheap
// next to admission, fingerprinting, scheduling, obs writes and per-solve
// fixed costs, and the rate sits well below saturation, where tails repeat.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checks.hpp"
#include "pw/advect/cpu_baseline.hpp"
#include "pw/kernel/fused.hpp"
#include "pw/serve/service.hpp"
#include "pw/serve/traffic.hpp"
#include "pw/shard/topology.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pw;

constexpr double kRateHz = 2000.0;
constexpr std::size_t kCatalogue = 384;
constexpr double kZipf = 1.1;
constexpr std::size_t kWarmupRequests = 1000;  ///< paced, inside set-up
constexpr double kGoodputDeadlineS = 0.010;
/// Latency percentiles are taken per window of the schedule, then the
/// median over windows is reported.
constexpr double kLatencyWindowS = 1.0;
constexpr auto kCollectorTick = std::chrono::microseconds(50);
constexpr std::size_t kOverheadRepeats = 15;

struct Tenant {
  const char* name;
  api::Priority priority;
  double weight;  ///< share of arrivals and weighted-fair quota weight
};
constexpr Tenant kTenants[] = {
    {"tenant-0", api::Priority::kInteractive, 1.0},
    {"tenant-1", api::Priority::kNormal, 1.0},
    {"tenant-2", api::Priority::kBatch, 3.0},
};

serve::TrafficSpec traffic_spec(std::uint64_t seed, std::size_t requests) {
  serve::TrafficSpec spec;
  spec.requests = requests;
  spec.arrival_rate_hz = kRateHz;
  spec.zipf_s = kZipf;
  spec.catalogue = kCatalogue;
  for (const Tenant& tenant : kTenants) {
    spec.tenants.push_back({tenant.name, tenant.weight, tenant.priority});
  }
  spec.trace.shapes = {{8, 8, 8}, {12, 12, 8}};
  spec.trace.kernels = {api::kAllKernels.begin(), api::kAllKernels.end()};
  spec.trace.seed = seed;
  return spec;
}

serve::ServiceConfig service_config() {
  serve::ServiceConfig config;
  config.scheduler = serve::sched::Policy::kWeightedFair;
  for (const Tenant& tenant : kTenants) {
    config.tenant_quotas[tenant.name].weight = tenant.weight;
  }
  config.workers_per_backend = 1;
  config.max_batch = 16;
  config.queue_capacity = 512;
  config.result_cache_capacity = 256;
  config.result_cache_bytes = 4ull << 20;
  return config;
}

struct ServeState {
  std::vector<serve::TimedRequest> traffic;  ///< warm-up prefix, then timed
  std::unique_ptr<serve::SolveService> service;
};

/// Per-request outcome of an open-loop phase, indexed like the requests.
struct OpenLoopRecord {
  ServeTiming timing;
  Completion completion;
  std::uint64_t flops = 0;
};

struct OpenLoopStats {
  std::vector<OpenLoopRecord> records;
  double start_s = 0.0;
  double end_s = 0.0;
  double schedule_s = 0.0;  ///< offered schedule, first to last arrival
  double generator_cpu_s = 0.0;
  double collector_cpu_s = 0.0;
};

using Checker = std::function<bool(const api::SolveRequest&,
                                   const api::SolveResult&)>;

/// The completion side of the open loop: stamps each future when it is
/// observed complete, in whatever order the service finishes them, checks
/// the result and releases the future. It waits on the newest outstanding
/// future — a lone request, or a cache hit sent while an older miss is
/// still running, is stamped the moment it completes — and rescans every
/// outstanding future at least once per tick. It sleeps rather than spins:
/// spinning benchmark threads take CPUs from the service.
class Collector {
 public:
  struct InFlight {
    api::SolveFuture future;
    std::size_t index = 0;
    double due_s = 0.0;
    double submit_begin_s = 0.0;
    double submit_end_s = 0.0;
  };

  Collector(std::span<const serve::TimedRequest> requests,
            const Checker& check, OpenLoopStats& stats, Tracer* tracer,
            std::uint64_t phase_id, std::uint64_t first_request_id)
      : requests_(requests),
        check_(check),
        stats_(stats),
        tracer_(tracer),
        phase_id_(phase_id),
        first_request_id_(first_request_id),
        thread_([this] { loop(); }) {}

  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(InFlight item) {
    {
      std::lock_guard lock(mutex_);
      incoming_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  /// Waits until every pushed future has been observed and checked.
  void finish() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  void loop() {
    tighten_timer_slack();
    const double cpu_start = shard::thread_cpu_seconds();
    std::vector<InFlight> outstanding;
    for (;;) {
      {
        std::unique_lock lock(mutex_);
        if (outstanding.empty()) {
          cv_.wait(lock, [&] { return !incoming_.empty() || done_; });
        }
        for (InFlight& item : incoming_) {
          outstanding.push_back(std::move(item));
        }
        incoming_.clear();
        if (outstanding.empty() && done_) {
          break;
        }
      }
      if (outstanding.empty()) {
        continue;
      }
      outstanding.back().future.wait_for(kCollectorTick);
      const double observed = now_s();
      for (auto it = outstanding.begin(); it != outstanding.end();) {
        if (!it->future.ready()) {
          ++it;
          continue;
        }
        observe(*it, observed);
        it = outstanding.erase(it);  // releases the result and its snapshot
      }
    }
    stats_.collector_cpu_s = shard::thread_cpu_seconds() - cpu_start;
  }

  void observe(const InFlight& item, double observed) {
    const api::SolveRequest& request = requests_[item.index].request;
    const api::SolveResult& result = item.future.result();
    const std::uint64_t request_id = first_request_id_ + item.index;
    bool ok = result.ok();
    {
      Span span(tracer_, "bench", "check", phase_id_, request_id);
      ok = ok && check_(request, result);
      if (!ok) {
        span.fail();
      }
    }
    OpenLoopRecord& record = stats_.records[item.index];
    record.timing.latency_s = observed - item.due_s;
    record.timing.lag_s = item.submit_begin_s - item.due_s;
    record.timing.submit_s = item.submit_end_s - item.submit_begin_s;
    record.timing.solve_s = result.seconds;
    record.timing.cached = result.cached;
    record.timing.ok = ok;
    record.completion = {item.due_s, observed, ok};
    record.flops = api::total_flops(request.options.kernel_spec,
                                    request.state->u.dims());
    if (tracer_ != nullptr) {
      SpanRecord wait;
      wait.id = tracer_->next_id();
      wait.parent = phase_id_;
      wait.request = request_id;
      wait.layer = "serve";
      wait.name = "request in flight";
      wait.start_s = item.submit_end_s;
      wait.end_s = observed;
      wait.wait = true;
      wait.failed = !ok;
      tracer_->record(std::move(wait));
    }
  }

  const std::span<const serve::TimedRequest> requests_;
  const Checker& check_;
  OpenLoopStats& stats_;
  Tracer* tracer_;
  const std::uint64_t phase_id_;
  const std::uint64_t first_request_id_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<InFlight> incoming_;
  bool done_ = false;
  std::thread thread_;  // last: starts after every member it uses
};

/// Replays `requests` on their seeded schedule from the calling thread (the
/// generator) into `service`, with one collector thread. Request ids start
/// at `first_request_id`.
OpenLoopStats drive_open_loop(serve::SolveService& service,
                              std::span<const serve::TimedRequest> requests,
                              std::uint64_t first_request_id,
                              const Checker& check, Tracer* tracer,
                              std::uint64_t phase_id) {
  OpenLoopStats stats;
  stats.records.resize(requests.size());
  if (requests.empty()) {
    return stats;
  }
  const double first_arrival = requests.front().arrival_s;
  stats.schedule_s = requests.back().arrival_s - first_arrival;
  tighten_timer_slack();
  {
    Collector collector(requests, check, stats, tracer, phase_id,
                        first_request_id);
    const double generator_cpu = shard::thread_cpu_seconds();
    stats.start_s = now_s();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const double due =
          stats.start_s + (requests[i].arrival_s - first_arrival);
      {
        Span pace(tracer, "bench", "pace", phase_id, 0);
        const double wait = due - now_s();
        if (wait > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
      }
      Collector::InFlight item;
      item.index = i;
      item.due_s = due;
      api::SolveRequest request = requests[i].request;  // submit consumes it
      {
        Span span(tracer, "serve", "SolveService::submit", phase_id,
                  first_request_id + i);
        item.submit_begin_s = now_s();
        item.future = service.submit(std::move(request));
        item.submit_end_s = now_s();
      }
      collector.push(std::move(item));
    }
    stats.generator_cpu_s = shard::thread_cpu_seconds() - generator_cpu;
    collector.finish();
  }
  stats.end_s = 0.0;
  for (const OpenLoopRecord& record : stats.records) {
    stats.end_s = std::max(stats.end_s, record.completion.observed_s);
  }
  return stats;
}

std::unique_ptr<ServeState> set_up(std::uint64_t seed,
                                   std::size_t timed_requests,
                                   Tracer* tracer) {
  auto state = std::make_unique<ServeState>();
  {
    Span span(tracer, "serve", "make_traffic");
    state->traffic = serve::make_traffic(
        traffic_spec(seed, kWarmupRequests + timed_requests));
  }
  {
    Span span(tracer, "serve", "SolveService::SolveService");
    state->service = std::make_unique<serve::SolveService>(service_config());
  }
  // Every plan shape and backend pool until its time settles, on distinct
  // catalogue payloads so the result cache does not answer instead.
  std::map<std::string, std::vector<const api::SolveRequest*>> by_plan;
  std::unordered_set<const grid::WindState*> seen;
  for (const serve::TimedRequest& timed : state->traffic) {
    if (seen.insert(timed.request.state.get()).second) {
      by_plan[serve::plan_key(timed.request.state->u.dims(),
                              timed.request.options)]
          .push_back(&timed.request);
    }
  }
  for (const auto& [plan, scenarios] : by_plan) {
    std::size_t next = 0;
    run_until_settled([&] {
      Span span(tracer, "serve", "SolveService::submit");
      state->service->submit(*scenarios[next++ % scenarios.size()]).wait();
    });
  }
  // Then the schedule's warm-up prefix, paced like the timed phase, so the
  // result cache holds the popular head and allocators have grown.
  const Checker unchecked = [](const api::SolveRequest&,
                               const api::SolveResult&) { return true; };
  Span warm(tracer, "bench", "serve.warmup");
  drive_open_loop(*state->service,
                  std::span(state->traffic).first(kWarmupRequests), 1,
                  unchecked, tracer, warm.id());
  return state;
}

/// The direct engine entry point a Solver::solve of `request` ends in.
void direct_engine_call(const api::SolveRequest& request,
                        advect::SourceTerms& out) {
  const api::SolverOptions& options = request.options;
  const grid::WindState& state = *request.state;
  stencil::EngineConfig engine;
  engine.chunk_y = options.kernel.chunk_y;
  switch (options.backend.backend()) {
    case api::Backend::kCpuBaseline:
      engine.engine = stencil::Engine::kThreaded;
      break;
    case api::Backend::kFused:
      engine.engine = stencil::Engine::kFused;
      break;
    default:
      engine.engine = stencil::Engine::kReference;
      break;
  }
  switch (options.kernel_spec.kernel()) {
    case api::Kernel::kDiffusion:
      stencil::run_diffusion(
          state, *options.kernel_spec.get_if<api::DiffusionOptions>(), out,
          engine);
      return;
    case api::Kernel::kPoissonJacobi:
      stencil::run_poisson(state,
                           *options.kernel_spec.get_if<api::PoissonOptions>(),
                           out, engine);
      return;
    case api::Kernel::kAdvectPw:
      break;
  }
  switch (options.backend.backend()) {
    case api::Backend::kCpuBaseline: {
      util::ThreadPool pool(0);
      advect::CpuAdvectorBaseline(pool).run(state, *request.coefficients,
                                            out);
      return;
    }
    case api::Backend::kFused:
      kernel::run_kernel_fused(state, *request.coefficients, out,
                               options.kernel);
      return;
    default:
      advect::advect_reference(state, *request.coefficients, out);
      return;
  }
}

/// api.overhead_us: Solver::solve time less the direct engine call on the
/// same inputs, per plan, weighted by how often the timed schedule sends
/// each plan.
double api_overhead_us(std::span<const serve::TimedRequest> timed,
                       Tracer* tracer) {
  std::map<std::string, std::pair<const api::SolveRequest*, std::size_t>>
      plans;
  for (const serve::TimedRequest& request : timed) {
    auto& [example, count] = plans[serve::plan_key(
        request.request.state->u.dims(), request.request.options)];
    if (example == nullptr) {
      example = &request.request;
    }
    ++count;
  }
  const api::Solver solver;
  double weighted = 0.0;
  std::size_t total = 0;
  for (const auto& [plan, entry] : plans) {
    const auto& [request, count] = entry;
    advect::SourceTerms out(request->state->u.dims());
    std::vector<double> api_us;
    std::vector<double> direct_us;
    for (std::size_t i = 0; i < kOverheadRepeats; ++i) {
      {
        Span span(tracer, "api", "Solver::solve");
        const double start = now_s();
        solver.solve(*request);
        api_us.push_back((now_s() - start) * 1e6);
      }
      {
        Span span(tracer, "engine", "direct engine call");
        const double start = now_s();
        direct_engine_call(*request, out);
        direct_us.push_back((now_s() - start) * 1e6);
      }
    }
    weighted += (median(api_us) - median(direct_us)) *
                static_cast<double>(count);
    total += count;
  }
  return total > 0 ? weighted / static_cast<double>(total) : 0.0;
}

/// The serve pieces, each replayed alone on the timed request sequence:
/// mean microseconds per request.
void replay_serve_pieces(std::span<const serve::TimedRequest> timed,
                         const std::vector<advect::SourceTerms>& references,
                         const std::unordered_map<const grid::WindState*,
                                                  std::size_t>& scenario_of,
                         Tracer* tracer, RunResult& result) {
  const double n = static_cast<double>(std::max<std::size_t>(1, timed.size()));
  const serve::ServiceConfig config = service_config();

  std::vector<std::uint64_t> fingerprints;
  fingerprints.reserve(timed.size());
  {
    serve::FingerprintCache cache(config.fingerprint_cache_capacity);
    Span span(tracer, "serve", "FingerprintCache::fingerprint");
    const double start = now_s();
    for (const serve::TimedRequest& request : timed) {
      fingerprints.push_back(cache.fingerprint(request.request));
    }
    result.layers["serve.fingerprint_us"] = {(now_s() - start) * 1e6 / n,
                                             "us"};
  }
  {
    serve::PlanCache plans(config.admission);
    Span span(tracer, "serve", "PlanCache::lookup");
    const double start = now_s();
    for (const serve::TimedRequest& request : timed) {
      plans.lookup(request.request.state->u.dims(), request.request.options);
    }
    result.layers["serve.plan_lookup_us"] = {(now_s() - start) * 1e6 / n,
                                             "us"};
  }
  {
    serve::sched::Options options;
    options.policy = config.scheduler;
    options.capacity = config.queue_capacity;
    options.quotas = config.tenant_quotas;
    auto scheduler = serve::sched::make_scheduler<std::size_t>(options);
    std::vector<serve::sched::Scheduled<std::size_t>> shed;
    Span span(tracer, "serve", "Scheduler::try_push+try_pop");
    const double start = now_s();
    for (std::size_t i = 0; i < timed.size(); ++i) {
      serve::sched::Scheduled<std::size_t> item;
      item.meta.tenant = timed[i].request.tenant;
      item.meta.priority = timed[i].request.priority;
      item.meta.cost = std::max(
          1.0, static_cast<double>(api::total_flops(
                   timed[i].request.options.kernel_spec,
                   timed[i].request.state->u.dims())) /
                   1e6);
      item.value = i;
      scheduler->try_push(std::move(item), shed);
      scheduler->try_pop();
    }
    result.layers["serve.sched_us"] = {(now_s() - start) * 1e6 / n, "us"};
  }
  {
    // The service's tier split: a quarter of the entries hot.
    serve::TieredCacheConfig tiers;
    tiers.hot_entries = config.result_cache_capacity / 4;
    tiers.warm_entries = config.result_cache_capacity - tiers.hot_entries;
    tiers.max_bytes = config.result_cache_bytes;
    obs::MetricsRegistry registry;
    serve::TieredResultCache cache(tiers, &registry);
    std::vector<std::shared_ptr<const api::SolveResult>> results(
        references.size());
    for (std::size_t s = 0; s < references.size(); ++s) {
      api::SolveResult solved;
      solved.terms = std::make_shared<const advect::SourceTerms>(
          references[s]);
      results[s] = std::make_shared<const api::SolveResult>(std::move(solved));
    }
    Span span(tracer, "serve", "TieredResultCache::get+put");
    const double start = now_s();
    for (std::size_t i = 0; i < timed.size(); ++i) {
      if (!cache.get(fingerprints[i])) {
        cache.put(fingerprints[i],
                  results[scenario_of.at(timed[i].request.state.get())]);
      }
    }
    result.layers["serve.cache_us"] = {(now_s() - start) * 1e6 / n, "us"};
  }
}

}  // namespace

RunResult run_serve(const RunOptions& options) {
  Tracer* tracer = options.tracer;
  RunResult result;
  const auto timed_requests = static_cast<std::size_t>(
      std::ceil(kRateHz * options.seconds));

  std::vector<double> setup_s;
  std::unique_ptr<ServeState> state;
  {
    Span span(tracer, "bench", "serve.setup");
    state = repeated_setup(
        [&] { return set_up(options.seed, timed_requests, tracer); }, setup_s);
  }
  serve::SolveService& service = *state->service;
  const std::span<const serve::TimedRequest> timed =
      std::span(state->traffic).subspan(kWarmupRequests);

  // One scalar reference per catalogue scenario.
  std::unordered_map<const grid::WindState*, std::size_t> scenario_of;
  std::vector<advect::SourceTerms> references;
  {
    Span span(tracer, "bench", "serve.reference");
    for (const serve::TimedRequest& request : timed) {
      if (scenario_of.emplace(request.request.state.get(), references.size())
              .second) {
        Span reference(tracer, "engine", "scalar reference");
        references.push_back(reference_terms(request.request));
      }
    }
  }
  const Checker check = [&](const api::SolveRequest& request,
                            const api::SolveResult& solved) {
    return matches_reference(references[scenario_of.at(request.state.get())],
                             *solved.terms, uses_f32_path(request.options));
  };

  const std::uint64_t plan_hits = service.plans().hits();
  const std::uint64_t plan_misses = service.plans().misses();
  const obs::HistogramSummary batches =
      service.metrics().histogram("serve.batch.size");
  const std::uint64_t coalesced =
      service.metrics().counter("serve.cache.coalesced");
  const std::uint64_t evictions = service.cache_stats()->evictions;

  OpenLoopStats stats;
  {
    Span phase(tracer, "bench", "serve.timed");
    const double cpu_start = process_cpu_s();
    stats = drive_open_loop(service, timed, kWarmupRequests + 1, check,
                            tracer, phase.id());
    const double cpu = process_cpu_s() - cpu_start - stats.generator_cpu_s -
                       stats.collector_cpu_s;

    std::vector<Completion> completions;
    std::vector<double> due_s;
    std::vector<ServeTiming> timings;
    for (const OpenLoopRecord& record : stats.records) {
      completions.push_back(record.completion);
      due_s.push_back(record.completion.due_s);
      timings.push_back(record.timing);
    }
    // Latency runs from the due time, less the generator's own wake-up
    // overshoot: that is this client thread's scheduling on the host, not
    // the service's (it is reported as serve.generator_lag_ms).
    const std::vector<double> overshoot = generator_overshoot_s(due_s, timings);
    std::vector<std::pair<double, double>> latency_ms;  // (due, latency)
    std::vector<std::pair<double, double>> from_due_ms;
    double flops_ok = 0.0;
    for (std::size_t i = 0; i < stats.records.size(); ++i) {
      const OpenLoopRecord& record = stats.records[i];
      if (record.completion.ok) {
        latency_ms.emplace_back(
            due_s[i], (record.timing.latency_s - overshoot[i]) * 1e3);
        from_due_ms.emplace_back(due_s[i], record.timing.latency_s * 1e3);
        flops_ok += static_cast<double>(record.flops);
      }
    }
    const GoodputTally tally =
        goodput(completions, kGoodputDeadlineS, stats.schedule_s);
    result.attempted = tally.attempted;
    result.failed = tally.failed;
    const std::size_t ok = tally.attempted - tally.failed;
    const WindowedPercentile p50 =
        windowed_percentile(latency_ms, kLatencyWindowS, 0.50);
    const WindowedPercentile p99 =
        windowed_percentile(latency_ms, kLatencyWindowS, 0.99);
    const double wall = stats.end_s - stats.start_s;
    result.end_to_end["latency_p50_ms"] = {p50.value, "ms"};
    result.end_to_end["latency_p99_ms"] = {p99.value, "ms"};
    result.end_to_end["goodput_rps"] = {tally.goodput_rps, "1/s"};
    result.end_to_end["cpu_ms_per_op"] = {
        ok > 0 ? cpu * 1e3 / static_cast<double>(ok) : 0.0, "ms"};
    result.end_to_end["gflops"] = {wall > 0.0 ? flops_ok / wall / 1e9 : 0.0,
                                   "GFLOP/s"};
    result.notes.push_back(
        "open loop: " + std::to_string(tally.attempted) + " requests over " +
        std::to_string(stats.schedule_s) + " s; latency over " +
        std::to_string(p99.samples) + " samples in " +
        std::to_string(p99.windows) + " windows, at least " +
        std::to_string(p99.min_beyond) + " beyond p99 in each; " +
        std::to_string(tally.good) + " within 10 ms of due; with the "
        "generator's overshoot, p50 " +
        std::to_string(
            windowed_percentile(from_due_ms, kLatencyWindowS, 0.50).value) +
        " ms, p99 " +
        std::to_string(
            windowed_percentile(from_due_ms, kLatencyWindowS, 0.99).value) +
        " ms");
  }
  result.end_to_end["setup_s"] = {median(setup_s), "s"};
  result.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MiB"};

  if (tracer == nullptr) {
    return result;
  }
  std::vector<double> submit_us;
  std::vector<double> lag_ms;
  std::vector<double> wait_ms;
  std::size_t ok = 0;
  std::size_t cached = 0;
  for (const OpenLoopRecord& record : stats.records) {
    submit_us.push_back(record.timing.submit_s * 1e6);
    lag_ms.push_back(record.timing.lag_s * 1e3);
    if (const auto wait = queue_wait_s(record.timing)) {
      wait_ms.push_back(*wait * 1e3);
    }
    ok += record.timing.ok ? 1 : 0;
    cached += record.timing.ok && record.timing.cached ? 1 : 0;
  }
  auto& layers = result.layers;
  layers["serve.submit_us_p50"] = {percentile(submit_us, 0.50).value, "us"};
  layers["serve.submit_us_p99"] = {percentile(submit_us, 0.99).value, "us"};
  const std::uint64_t lookups = service.plans().hits() - plan_hits +
                                service.plans().misses() - plan_misses;
  layers["serve.plan_hit_ratio"] = {
      lookups > 0 ? static_cast<double>(service.plans().hits() - plan_hits) /
                        static_cast<double>(lookups)
                  : 0.0,
      "ratio"};
  layers["serve.wait_ms_p50"] = {percentile(wait_ms, 0.50).value, "ms"};
  layers["serve.wait_ms_p99"] = {percentile(wait_ms, 0.99).value, "ms"};
  const obs::HistogramSummary batches_after =
      service.metrics().histogram("serve.batch.size");
  const double dispatched =
      static_cast<double>(batches_after.count - batches.count);
  layers["serve.batch_mean"] = {
      dispatched > 0.0 ? (batches_after.sum - batches.sum) / dispatched : 0.0,
      "count"};
  layers["serve.generator_lag_ms_p99"] = {percentile(lag_ms, 0.99).value,
                                          "ms"};
  layers["serve.cache_hit_ratio"] = {
      ok > 0 ? static_cast<double>(cached) / static_cast<double>(ok) : 0.0,
      "ratio"};
  layers["serve.coalesced"] = {
      static_cast<double>(service.metrics().counter("serve.cache.coalesced") -
                          coalesced),
      "count"};
  layers["serve.cache_evictions"] = {
      static_cast<double>(service.cache_stats()->evictions - evictions),
      "count"};
  result.notes.push_back("serve.wait_ms over " +
                         std::to_string(wait_ms.size()) +
                         " uncached requests");

  {
    Span span(tracer, "obs", "MetricsRegistry::snapshot");
    const obs::RegistrySnapshot snapshot = service.metrics().snapshot();
    double samples = 0.0;
    for (const auto& [name, histogram] : snapshot.histograms) {
      samples += static_cast<double>(histogram.count);
    }
    layers["obs.series"] = {
        static_cast<double>(snapshot.counters.size() + snapshot.gauges.size() +
                            snapshot.histograms.size()),
        "count"};
    layers["obs.histogram_samples"] = {samples, "count"};
  }
  {
    std::vector<double> report_ms;
    for (int i = 0; i < 3; ++i) {
      Span span(tracer, "obs", "SolveService::report");
      const double start = now_s();
      service.report();
      report_ms.push_back((now_s() - start) * 1e3);
    }
    layers["obs.report_ms"] = {median(report_ms), "ms"};
  }
  {
    Span span(tracer, "bench", "serve.replay");
    replay_serve_pieces(timed, references, scenario_of, tracer, result);
    layers["api.overhead_us"] = {api_overhead_us(timed, tracer), "us"};
  }
  {
    // grid: initialising a catalogue's worth of payloads, replayed alone.
    const serve::TrafficSpec spec = traffic_spec(options.seed, 1);
    Span span(tracer, "grid", "grid::init_random");
    const double start = now_s();
    for (std::size_t k = 0; k < kCatalogue; ++k) {
      grid::WindState wind(spec.trace.shapes[k % spec.trace.shapes.size()]);
      grid::init_random(wind, options.seed + k);
    }
    layers["grid.init_ms"] = {(now_s() - start) * 1e3, "ms"};
  }
  return result;
}

}  // namespace perfbench
