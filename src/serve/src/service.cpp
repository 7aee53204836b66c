#include "pw/serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "pw/advect/flops.hpp"
#include "pw/fault/injector.hpp"
#include "pw/obs/export.hpp"

namespace pw::serve {

namespace {

std::uint64_t counter_or_zero(const obs::RegistrySnapshot& snapshot,
                              const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  std::ostringstream os;
  os.precision(17);
  os << value;
  out += os.str();
}

void append_field(std::string& out, const char* name, std::uint64_t value,
                  bool trailing_comma = true) {
  obs::append_json_string(out, name);
  out += ":";
  out += std::to_string(value);
  if (trailing_comma) {
    out += ",";
  }
}

std::string normalised_tenant(const std::string& tenant) {
  return tenant.empty() ? std::string("default") : tenant;
}

std::string tenant_metric(const std::string& tenant, const char* suffix) {
  return std::string("serve.tenant.") + tenant + "." + suffix;
}

sched::Options scheduler_options(const ServiceConfig& config) {
  sched::Options options;
  options.policy = config.scheduler;
  options.capacity = config.queue_capacity;
  options.edf_window = config.edf_window;
  options.quotas = config.tenant_quotas;
  options.default_quota = config.default_quota;
  return options;
}

TieredCacheConfig cache_config(const ServiceConfig& config) {
  // A quarter of the entry budget stays hot; the rest absorbs demotions.
  TieredCacheConfig tiers;
  const std::size_t total =
      std::max<std::size_t>(1, config.result_cache_capacity);
  tiers.hot_entries = std::max<std::size_t>(1, total / 4);
  tiers.warm_entries = total - tiers.hot_entries;
  tiers.max_bytes = std::max<std::size_t>(1, config.result_cache_bytes);
  return tiers;
}

}  // namespace

std::string to_json(const ServiceReport& report) {
  std::string out = "{";
  obs::append_json_string(out, "service");
  out += ":{";
  append_field(out, "submitted", report.submitted);
  append_field(out, "completed", report.completed);
  append_field(out, "computed", report.computed);
  append_field(out, "result_cache_hits", report.result_cache_hits);
  append_field(out, "rejected_options", report.rejected_options);
  append_field(out, "rejected_lint", report.rejected_lint);
  append_field(out, "rejected_backpressure", report.rejected_backpressure);
  append_field(out, "shed_quota", report.shed_quota);
  append_field(out, "cancelled", report.cancelled);
  append_field(out, "deadline_exceeded", report.deadline_exceeded);
  append_field(out, "plan_cache_hits", report.plan_cache_hits);
  append_field(out, "plan_cache_misses", report.plan_cache_misses);
  append_field(out, "backend_faults", report.backend_faults);
  append_field(out, "retries", report.retries);
  append_field(out, "retry_recovered", report.retry_recovered);
  append_field(out, "failovers", report.failovers);
  append_field(out, "failover_failed", report.failover_failed);
  append_field(out, "breaker_opens", report.breaker_opens);
  append_field(out, "breaker_short_circuits", report.breaker_short_circuits);
  obs::append_json_string(out, "uptime_s");
  out += ":";
  append_number(out, report.uptime_s);
  out += ",";
  obs::append_json_string(out, "aggregate_gflops");
  out += ":";
  append_number(out, report.aggregate_gflops);
  out += "},";
  obs::append_json_string(out, "scheduler");
  out += ":{";
  obs::append_json_string(out, "policy");
  out += ":";
  obs::append_json_string(out, sched::to_string(report.scheduler));
  out += ",";
  append_field(out, "shed_quota", report.shed_quota);
  append_field(out, "unfair_sheds", report.sheds_unfair,
               /*trailing_comma=*/false);
  out += "},";
  obs::append_json_string(out, "cache");
  out += ":{";
  append_field(out, "hot_hits", report.cache_hot_hits);
  append_field(out, "warm_hits", report.cache_warm_hits);
  append_field(out, "evictions", report.cache_evictions);
  append_field(out, "bytes", report.cache_bytes);
  append_field(out, "peak_bytes", report.cache_peak_bytes);
  append_field(out, "byte_cap", report.cache_byte_cap,
               /*trailing_comma=*/false);
  out += "},";
  obs::append_json_string(out, "tenants");
  out += ":[";
  bool first = true;
  for (const TenantReportRow& row : report.tenants) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{";
    obs::append_json_string(out, "tenant");
    out += ":";
    obs::append_json_string(out, row.tenant);
    out += ",";
    append_field(out, "submitted", row.submitted);
    append_field(out, "admitted", row.admitted);
    append_field(out, "shed", row.shed);
    append_field(out, "completed", row.completed);
    obs::append_json_string(out, "p99_latency_s");
    out += ":";
    append_number(out, row.p99_latency_s);
    out += "}";
  }
  out += "],";
  obs::append_json_string(out, "metrics");
  out += ":";
  out += obs::to_json(report.metrics);
  out += "}";
  return out;
}

util::Table to_table(const ServiceReport& report) {
  util::Table table("solve service");
  table.header({"metric", "value"});
  const auto row = [&](const char* name, std::uint64_t value) {
    table.row({name, std::to_string(value)});
  };
  table.row({"scheduler", sched::to_string(report.scheduler)});
  row("submitted", report.submitted);
  row("completed", report.completed);
  row("computed", report.computed);
  row("result cache hits", report.result_cache_hits);
  row("cache hits (hot)", report.cache_hot_hits);
  row("cache hits (warm)", report.cache_warm_hits);
  row("cache evictions", report.cache_evictions);
  row("cache bytes", report.cache_bytes);
  row("cache peak bytes", report.cache_peak_bytes);
  row("cache byte cap", report.cache_byte_cap);
  row("rejected (options)", report.rejected_options);
  row("rejected (lint)", report.rejected_lint);
  row("rejected (backpressure)", report.rejected_backpressure);
  row("shed (quota)", report.shed_quota);
  row("unfair sheds", report.sheds_unfair);
  row("cancelled", report.cancelled);
  row("deadline exceeded", report.deadline_exceeded);
  row("plan cache hits", report.plan_cache_hits);
  row("plan cache misses", report.plan_cache_misses);
  row("backend faults", report.backend_faults);
  row("retries", report.retries);
  row("retry recovered", report.retry_recovered);
  row("failovers (degraded)", report.failovers);
  row("failover failed", report.failover_failed);
  row("breaker opens", report.breaker_opens);
  row("breaker short circuits", report.breaker_short_circuits);
  table.row({"uptime [s]", util::format_double(report.uptime_s, 3)});
  table.row({"aggregate GFLOPS", util::format_double(report.aggregate_gflops, 3)});
  table.row({"latency p50 [s]", util::format_double(report.latency_s.p50, 6)});
  table.row({"latency p95 [s]", util::format_double(report.latency_s.p95, 6)});
  table.row({"latency p99 [s]", util::format_double(report.latency_s.p99, 6)});
  table.row({"mean batch size",
             util::format_double(report.batch_size.mean, 2)});
  for (const TenantReportRow& tenant : report.tenants) {
    table.row({"tenant " + tenant.tenant,
               "admitted=" + std::to_string(tenant.admitted) +
                   " shed=" + std::to_string(tenant.shed) +
                   " completed=" + std::to_string(tenant.completed) +
                   " p99=" + util::format_double(tenant.p99_latency_s, 6) +
                   "s"});
  }
  return table;
}

SolveService::SolveService(ServiceConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? config_.metrics : &own_metrics_),
      plans_(config_.admission),
      fingerprints_(config_.fingerprint_cache_capacity),
      queue_(sched::make_scheduler<ServeEntry>(scheduler_options(config_))),
      retry_rng_(config_.retry.jitter_seed) {
  if (config_.workers_per_backend == 0) {
    config_.workers_per_backend = 1;
  }
  if (config_.max_batch == 0) {
    config_.max_batch = 1;
  }
  if (config_.result_cache) {
    cache_ = std::make_unique<TieredResultCache>(cache_config(config_),
                                                 metrics_);
  }
  if (config_.shard) {
    sharded_ = std::make_unique<shard::ShardedSolver>(*config_.shard);
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SolveService::~SolveService() { shutdown(true); }

api::SolveFuture SolveService::reject(
    std::shared_ptr<api::detail::SolveState> state, api::SolveError error,
    api::Backend backend, std::string message) {
  state->complete(api::error_result(error, backend, std::move(message)));
  return api::SolveFuture(std::move(state));
}

void SolveService::shed(ServeEntry& entry, std::string message) {
  metrics_->counter_add("serve.admission.shed_quota");
  metrics_->counter_add(tenant_metric(entry.tenant, "shed"));
  entry.state->try_begin();
  finish(entry,
         api::error_result(api::SolveError::kQueueFull,
                           entry.request.options.backend.backend(),
                           std::move(message)),
         /*dispatched=*/false);
}

api::SolveFuture SolveService::submit(api::SolveRequest request) {
  auto state = std::make_shared<api::detail::SolveState>();
  const api::Backend backend = request.options.backend.backend();
  const std::string tenant = normalised_tenant(request.tenant);
  metrics_->counter_add("serve.submitted");
  metrics_->counter_add(tenant_metric(tenant, "submitted"));
  {
    std::lock_guard lock(mutex_);
    tenants_.insert(tenant);
  }

  if (stopped_.load()) {
    return reject(std::move(state), api::SolveError::kServiceStopped, backend);
  }
  if (std::optional<api::SolveResult> rejection =
          api::check_request(request)) {
    metrics_->counter_add("serve.admission.rejected_options");
    return reject(std::move(state), rejection->error, backend,
                  std::move(rejection->message));
  }
  const api::Kernel kernel = request.options.kernel_spec.kernel();
  const grid::GridDims dims = request.state->u.dims();

  // Plan lookup runs the lint battery (amortised per shape). An
  // inadmissible plan completes here — the request never reaches the queue,
  // let alone a worker.
  std::shared_ptr<const Plan> plan = plans_.lookup(dims, request.options);
  if (!plan->admitted) {
    metrics_->counter_add("serve.admission.rejected_lint");
    return reject(std::move(state), api::SolveError::kRejectedByLint, backend,
                  plan->rejection);
  }

  // Deliberately NOT pointing request.options.metrics at the service
  // registry: each solve keeps its private registry (snapshotted into its
  // SolveResult as usual). Routing every solve's spans into the shared
  // registry would make each result snapshot the whole ever-growing
  // registry — quadratic in requests served — and bloat the cached copies.
  // Service-level serve.* metrics land in metrics_ regardless; callers who
  // want per-solve internals in their own sink can still set
  // request.options.metrics explicitly.
  ServeEntry entry;
  entry.request = std::move(request);
  entry.state = state;
  entry.plan = std::move(plan);
  entry.tenant = tenant;
  if (config_.result_cache) {
    entry.fingerprint = fingerprints_.fingerprint(entry.request);
  }
  entry.flops = api::total_flops(entry.request.options.kernel_spec, dims);
  metrics_->counter_add(std::string("serve.kernel.") + api::to_string(kernel) +
                        ".admitted");
  entry.enqueued_s = uptime_.seconds();
  if (entry.request.timeout.count() > 0) {
    entry.deadline = std::chrono::steady_clock::now() + entry.request.timeout;
  }

  // The serve.sched.push fault site: an armed non-latency fault forces an
  // injected shed — typed kQueueFull, named in the message, and exempt
  // from the fairness audit (no real tenant decision was made).
  if (sched::consult_push_site() == sched::PushFault::kShed) {
    metrics_->counter_add("serve.fault.injected_shed");
    metrics_->counter_add(tenant_metric(tenant, "shed"));
    return reject(std::move(state), api::SolveError::kQueueFull, backend,
                  "injected shed at serve.sched.push");
  }

  sched::Scheduled<ServeEntry> item;
  item.meta.tenant = tenant;
  item.meta.priority = entry.request.priority;
  item.meta.deadline = entry.deadline;
  item.meta.cost =
      std::max(1.0, static_cast<double>(entry.flops) / 1e6);  // ~Mflops
  item.value = std::move(entry);

  {
    std::lock_guard lock(mutex_);
    ++pending_;
  }
  std::vector<sched::Scheduled<ServeEntry>> evicted;
  const bool accepted = config_.block_when_full
                            ? queue_->push(std::move(item))
                            : queue_->try_push(std::move(item), evicted);
  // Quota-shed victims (weighted-fair policy only): queued work evicted in
  // favour of a compliant tenant's request completes kQueueFull, typed.
  for (sched::Scheduled<ServeEntry>& victim : evicted) {
    shed(victim.value,
         "shed by quota: tenant " + victim.meta.tenant +
             " queued over its fair share");
  }
  if (!accepted) {
    {
      std::lock_guard lock(mutex_);
      --pending_;
    }
    drained_cv_.notify_all();
    if (stopped_.load()) {
      return reject(std::move(state), api::SolveError::kServiceStopped,
                    backend);
    }
    metrics_->counter_add("serve.admission.rejected_backpressure");
    metrics_->counter_add(tenant_metric(tenant, "shed"));
    return reject(std::move(state), api::SolveError::kQueueFull, backend,
                  "admission queue is full");
  }
  metrics_->counter_add(tenant_metric(tenant, "admitted"));
  metrics_->gauge_set("serve.queue.depth",
                      static_cast<double>(queue_->size()));
  return api::SolveFuture(std::move(state));
}

std::vector<api::SolveFuture> SolveService::submit_all(
    std::vector<api::SolveRequest> requests) {
  std::vector<api::SolveFuture> futures;
  futures.reserve(requests.size());
  for (api::SolveRequest& request : requests) {
    futures.push_back(submit(std::move(request)));
  }
  return futures;
}

void SolveService::drain() {
  std::unique_lock lock(mutex_);
  drained_cv_.wait(lock, [this] { return pending_ == 0; });
}

void SolveService::shutdown(bool drain_queued) {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) {
    // Someone already stopped the service; just wait for in-flight work.
    drain();
    return;
  }
  if (drain_queued) {
    drain();  // queued entries count as pending, so this empties the queue
  } else {
    abandon_.store(true);
    drained_cv_.notify_all();  // release a throttled dispatcher
  }
  queue_->close();
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  }
  drain();  // pool workers may still be finishing dispatched batches
}

std::optional<TieredCacheStats> SolveService::cache_stats() const {
  if (!cache_) {
    return std::nullopt;
  }
  return cache_->stats();
}

util::ThreadPool& SolveService::pool_for(api::Backend backend) {
  std::lock_guard lock(mutex_);
  auto& slot = pools_[backend];
  if (!slot) {
    slot = std::make_unique<util::ThreadPool>(config_.workers_per_backend);
  }
  return *slot;
}

fault::CircuitBreaker& SolveService::breaker_for(api::Backend backend) {
  std::lock_guard lock(mutex_);
  auto& slot = breakers_[backend];
  if (!slot) {
    slot = std::make_unique<fault::CircuitBreaker>(config_.breaker);
  }
  return *slot;
}

api::SolveResult SolveService::attempt_solve(const ServeEntry& entry,
                                             const api::BackendSpec& backend) {
  // Serve-level fault site "serve.solve.<backend>", consulted per attempt:
  // it models a backend failing at dispatch (driver error, lost device)
  // before any compute runs — the granularity the retry / breaker /
  // failover ladder operates at. The site string is only materialised when
  // an injector is armed; the steady-state cost is one atomic load.
  if (fault::FaultInjector* injector = fault::armed()) {
    const std::string site =
        std::string("serve.solve.") + api::to_string(backend.backend());
    if (const auto fault = injector->fire(site)) {
      fault::apply_latency(*fault);
      if (fault->kind != fault::FaultKind::kSpuriousLatency) {
        metrics_->counter_add("serve.fault.injected");
        return api::error_result(
            api::SolveError::kBackendFault, backend.backend(),
            "injected " + std::string(to_string(fault->kind)) + " at " + site);
      }
    }
  }
  api::SolveRequest request = entry.request;
  request.options.backend = backend;
  api::SolveResult result;
  if (sharded_) {
    std::lock_guard lock(shard_mutex_);
    result = sharded_->solve(request);
  } else {
    result = api::Solver(request.options).solve(request);
  }
  metrics_->counter_add("serve.computed");
  return result;
}

api::SolveResult SolveService::resilient_solve(const ServeEntry& entry) {
  const api::BackendSpec& primary = entry.request.options.backend;
  const api::Backend backend = primary.backend();
  fault::CircuitBreaker& breaker = breaker_for(backend);

  api::SolveResult result;
  if (breaker.allow()) {
    const std::size_t max_attempts =
        std::max<std::size_t>(1, config_.retry.max_attempts);
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      result = attempt_solve(entry, primary);
      result.attempts = static_cast<std::uint32_t>(attempt + 1);
      if (result.error != api::SolveError::kBackendFault) {
        breaker.record_success();
        if (attempt > 0 && result.ok()) {
          metrics_->counter_add("serve.retry.recovered");
        }
        return result;
      }
      metrics_->counter_add("serve.fault.backend");
      breaker.record_failure();
      if (attempt + 1 >= max_attempts || !breaker.allow()) {
        break;  // budget exhausted, or the breaker tripped mid-request
      }
      double backoff_s = config_.retry.initial_backoff.count() *
                         std::pow(config_.retry.multiplier,
                                  static_cast<double>(attempt));
      if (config_.retry.jitter > 0.0) {
        double unit;  // U[-1, 1)
        {
          std::lock_guard lock(mutex_);
          unit = retry_rng_.uniform(-1.0, 1.0);
        }
        backoff_s *= std::max(0.0, 1.0 + config_.retry.jitter * unit);
      }
      if (entry.deadline) {
        const auto wake = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(backoff_s));
        if (wake >= *entry.deadline) {
          // Sleeping would burn the rest of the budget: fail now, awake.
          metrics_->counter_add("serve.deadline_exceeded");
          metrics_->counter_add("serve.retry.abandoned");
          api::SolveResult expired = api::error_result(
              api::SolveError::kDeadlineExceeded, backend,
              "deadline would pass during retry backoff");
          expired.attempts = static_cast<std::uint32_t>(attempt + 1);
          return expired;
        }
      }
      metrics_->counter_add("serve.retry");
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
    }
  } else {
    metrics_->counter_add("serve.breaker.short_circuit");
    result = api::error_result(
        api::SolveError::kBackendFault, backend,
        std::string("circuit breaker open for backend ") +
            api::to_string(backend));
    result.attempts = 0;
  }

  // Graceful degradation: the primary is out (retries exhausted or breaker
  // open); serve from the failover backend and flag the result degraded.
  if (config_.failover && backend != config_.failover_backend) {
    fault::CircuitBreaker& fallback_breaker =
        breaker_for(config_.failover_backend);
    if (fallback_breaker.allow()) {
      api::SolveResult fallback =
          attempt_solve(entry, api::BackendSpec(config_.failover_backend));
      fallback.attempts = result.attempts + 1;
      if (fallback.error != api::SolveError::kBackendFault) {
        fallback_breaker.record_success();
        fallback.degraded = fallback.ok();
        return fallback;
      }
      fallback_breaker.record_failure();
      metrics_->counter_add("serve.fault.backend");
      metrics_->counter_add("serve.failover.failed");
      return fallback;
    }
    metrics_->counter_add("serve.breaker.short_circuit");
    metrics_->counter_add("serve.failover.failed");
  }
  return result;
}

void SolveService::dispatcher_loop() {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t max_in_flight =
      config_.max_in_flight != 0
          ? config_.max_in_flight
          : config_.max_batch * std::min(config_.workers_per_backend, cores);
  for (;;) {
    {
      // Throttle: with every worker slot covered, leave requests in the
      // bounded queue — that is where they batch up (and where EDF/WFQ
      // reorder) and where backpressure must bite. Pool deques are
      // unbounded and must stay near-empty.
      std::unique_lock lock(mutex_);
      drained_cv_.wait(lock, [&] {
        return in_flight_ < max_in_flight || abandon_.load();
      });
    }
    std::optional<sched::Scheduled<ServeEntry>> first =
        queue_->pop_for(std::chrono::milliseconds(50));
    if (!first) {
      if (queue_->closed()) {
        return;  // closed and fully drained
      }
      continue;
    }
    sched::consult_pop_site();  // latency-only: a slow dispatcher
    std::vector<ServeEntry> batch;
    batch.push_back(std::move(first->value));
    while (batch.size() < config_.max_batch) {
      std::optional<sched::Scheduled<ServeEntry>> next = queue_->try_pop();
      if (!next) {
        break;
      }
      batch.push_back(std::move(next->value));
    }
    metrics_->gauge_set("serve.queue.depth",
                        static_cast<double>(queue_->size()));

    if (abandon_.load()) {
      // Abandoning shutdown: complete leftovers without running them.
      for (ServeEntry& entry : batch) {
        entry.state->try_begin();
        finish(entry,
               api::error_result(api::SolveError::kServiceStopped,
                                 entry.request.options.backend.backend(),
                                 "service stopped before the request ran"),
               /*dispatched=*/false);
      }
      continue;
    }

    // Group the drained slice by plan: same shape + same configuration runs
    // back-to-back on one worker (warm plan, warm caches).
    std::map<std::string, std::vector<ServeEntry>> groups;
    for (ServeEntry& entry : batch) {
      groups[entry.plan->key].push_back(std::move(entry));
    }
    for (auto& [key, group] : groups) {
      dispatch_batch(std::move(group));
    }
  }
}

void SolveService::dispatch_batch(std::vector<ServeEntry> batch) {
  metrics_->observe("serve.batch.size", static_cast<double>(batch.size()));
  {
    std::lock_guard lock(mutex_);
    in_flight_ += batch.size();
  }
  const api::Backend backend =
      batch.front().request.options.backend.backend();
  util::ThreadPool& pool = pool_for(backend);
  auto shared = std::make_shared<std::vector<ServeEntry>>(std::move(batch));
  pool.submit([this, shared] { run_batch(*shared); });
}

void SolveService::run_batch(std::vector<ServeEntry>& batch) {
  for (ServeEntry& entry : batch) {
    const api::Backend backend = entry.request.options.backend.backend();
    if (!entry.state->try_begin()) {
      metrics_->counter_add("serve.cancelled");
      finish(entry, api::error_result(api::SolveError::kCancelled, backend));
      continue;
    }
    if (entry.deadline && std::chrono::steady_clock::now() > *entry.deadline) {
      metrics_->counter_add("serve.deadline_exceeded");
      finish(entry, api::error_result(api::SolveError::kDeadlineExceeded,
                                      backend,
                                      "deadline passed while queued"));
      continue;
    }
    if (config_.result_cache) {
      std::shared_ptr<const api::SolveResult> cached;
      bool coalesced = false;
      {
        // Lock order everywhere: mutex_ before the cache's internal mutex.
        std::lock_guard lock(mutex_);
        cached = cache_->get(entry.fingerprint);
        if (!cached) {
          // Single-flight: if this fingerprint is already being computed on
          // some worker, park the entry with it instead of computing the
          // same answer twice; otherwise claim it (empty waiter list).
          const auto flight = coalesced_.find(entry.fingerprint);
          if (flight != coalesced_.end()) {
            flight->second.push_back(std::move(entry));
            coalesced = true;
          } else {
            coalesced_.emplace(entry.fingerprint, std::vector<ServeEntry>{});
          }
        }
      }
      if (cached) {
        metrics_->counter_add("serve.cache.hits");
        api::SolveResult result = *cached;
        result.cached = true;
        finish(entry, std::move(result));
        continue;
      }
      if (coalesced) {
        continue;  // the computing worker will finish it
      }
    }

    api::SolveResult result = resilient_solve(entry);

    // The cache only memoises what the *requested* backend computed, so a
    // recovered backend is not shadowed by stale failover answers. A
    // sharded re-partition keeps the backend (bit-exact over the
    // survivors) and is cached; a failover to another backend is served
    // but not cached.
    const bool cacheable =
        result.ok() &&
        result.backend == entry.request.options.backend.backend();
    std::vector<ServeEntry> waiters;
    if (config_.result_cache) {
      std::lock_guard lock(mutex_);
      if (cacheable) {
        cache_->put(entry.fingerprint,
                    std::make_shared<const api::SolveResult>(result));
      }
      const auto flight = coalesced_.find(entry.fingerprint);
      if (flight != coalesced_.end()) {
        waiters = std::move(flight->second);
        coalesced_.erase(flight);
      }
    }
    // Waiters ride on this compute: same payloads, same deterministic
    // answer. An uncacheable answer (an error, a failover) reaches them
    // too, but is not flagged or counted as a cache hit.
    for (ServeEntry& waiter : waiters) {
      if (cacheable) {
        metrics_->counter_add("serve.cache.hits");
        metrics_->counter_add("serve.cache.coalesced");
      }
      api::SolveResult shared_result = result;
      shared_result.cached = cacheable;
      finish(waiter, std::move(shared_result));
    }
    finish(entry, std::move(result));
  }
}

void SolveService::finish(ServeEntry& entry, api::SolveResult result,
                          bool dispatched) {
  const bool ok = result.error == api::SolveError::kNone;
  // Metrics and bookkeeping are published before complete() wakes waiters,
  // so a report() taken right after wait() returns already includes this
  // request.
  const double latency = uptime_.seconds() - entry.enqueued_s;
  metrics_->observe("serve.latency_s", latency);
  metrics_->observe(tenant_metric(entry.tenant, "latency_s"), latency);
  if (ok) {
    metrics_->counter_add("serve.requests.completed");
    metrics_->counter_add(tenant_metric(entry.tenant, "completed"));
    if (result.degraded) {
      // Per delivered result: requests coalesced onto a degraded solve, or
      // served a cached re-partitioned answer, each receive it degraded.
      metrics_->counter_add("serve.failover.degraded");
    }
    metrics_->counter_add(
        std::string("serve.kernel.") +
        api::to_string(entry.request.options.kernel_spec) + ".completed");
  }
  {
    std::lock_guard lock(mutex_);
    if (ok) {
      flops_served_ += entry.flops;
    }
  }
  entry.state->complete(std::move(result));
  {
    std::lock_guard lock(mutex_);
    --pending_;
    if (dispatched) {
      --in_flight_;
    }
  }
  drained_cv_.notify_all();
}

ServiceReport SolveService::report() const {
  ServiceReport report;
  obs::RegistrySnapshot snapshot = metrics_->snapshot();
  report.submitted = counter_or_zero(snapshot, "serve.submitted");
  report.completed = counter_or_zero(snapshot, "serve.requests.completed");
  report.computed = counter_or_zero(snapshot, "serve.computed");
  report.result_cache_hits = counter_or_zero(snapshot, "serve.cache.hits");
  report.rejected_options =
      counter_or_zero(snapshot, "serve.admission.rejected_options");
  report.rejected_lint =
      counter_or_zero(snapshot, "serve.admission.rejected_lint");
  report.rejected_backpressure =
      counter_or_zero(snapshot, "serve.admission.rejected_backpressure");
  report.shed_quota = counter_or_zero(snapshot, "serve.admission.shed_quota");
  report.cancelled = counter_or_zero(snapshot, "serve.cancelled");
  report.deadline_exceeded =
      counter_or_zero(snapshot, "serve.deadline_exceeded");
  report.plan_cache_hits = plans_.hits();
  report.plan_cache_misses = plans_.misses();
  report.backend_faults = counter_or_zero(snapshot, "serve.fault.backend");
  report.retries = counter_or_zero(snapshot, "serve.retry");
  report.retry_recovered = counter_or_zero(snapshot, "serve.retry.recovered");
  report.failovers = counter_or_zero(snapshot, "serve.failover.degraded");
  report.failover_failed =
      counter_or_zero(snapshot, "serve.failover.failed");
  report.breaker_short_circuits =
      counter_or_zero(snapshot, "serve.breaker.short_circuit");
  {
    std::lock_guard lock(mutex_);
    for (const auto& [backend, breaker] : breakers_) {
      report.breaker_opens += breaker->opens();
    }
  }
  report.scheduler = queue_->policy();
  report.sheds_unfair = queue_->audit().unfair_sheds;
  if (cache_) {
    const TieredCacheStats stats = cache_->stats();
    report.cache_hot_hits = stats.hot_hits;
    report.cache_warm_hits = stats.warm_hits;
    report.cache_evictions = stats.evictions;
    report.cache_bytes = stats.bytes;
    report.cache_peak_bytes = stats.peak_bytes;
    report.cache_byte_cap = stats.byte_cap;
  }
  report.uptime_s = uptime_.seconds();
  {
    std::lock_guard lock(mutex_);
    report.aggregate_gflops =
        report.uptime_s > 0.0
            ? static_cast<double>(flops_served_) / report.uptime_s / 1e9
            : 0.0;
    for (const std::string& tenant : tenants_) {
      TenantReportRow row;
      row.tenant = tenant;
      row.submitted =
          counter_or_zero(snapshot, tenant_metric(tenant, "submitted"));
      row.admitted =
          counter_or_zero(snapshot, tenant_metric(tenant, "admitted"));
      row.shed = counter_or_zero(snapshot, tenant_metric(tenant, "shed"));
      row.completed =
          counter_or_zero(snapshot, tenant_metric(tenant, "completed"));
      const auto hist =
          snapshot.histograms.find(tenant_metric(tenant, "latency_s"));
      if (hist != snapshot.histograms.end()) {
        row.p99_latency_s = hist->second.p99;
      }
      report.tenants.push_back(std::move(row));
    }
  }
  const auto latency = snapshot.histograms.find("serve.latency_s");
  if (latency != snapshot.histograms.end()) {
    report.latency_s = latency->second;
  }
  const auto batch = snapshot.histograms.find("serve.batch.size");
  if (batch != snapshot.histograms.end()) {
    report.batch_size = batch->second;
  }
  report.metrics = std::move(snapshot);
  return report;
}

}  // namespace pw::serve
