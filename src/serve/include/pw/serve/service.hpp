#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pw/api/request.hpp"
#include "pw/fault/breaker.hpp"
#include "pw/obs/metrics.hpp"
#include "pw/serve/plan_cache.hpp"
#include "pw/serve/sched.hpp"
#include "pw/serve/tiered_cache.hpp"
#include "pw/shard/sharded_solver.hpp"
#include "pw/util/rng.hpp"
#include "pw/util/table.hpp"
#include "pw/util/thread_pool.hpp"
#include "pw/util/timer.hpp"

namespace pw::serve {

/// Retry schedule for solves that fail with a backend fault (and only
/// those: validation errors, deadlines and cancellations never retry).
/// Backoff before attempt k (k >= 1) is
///   initial_backoff * multiplier^(k-1) * (1 + jitter * U[-1, 1))
/// capped so a request never sleeps past its deadline — when the next
/// backoff would cross it, the request fails with kDeadlineExceeded
/// immediately instead of burning the remaining budget asleep.
struct RetryPolicy {
  /// Total solve attempts per backend, including the first (1 = no retry).
  std::size_t max_attempts = 3;
  std::chrono::duration<double> initial_backoff =
      std::chrono::milliseconds(1);
  double multiplier = 2.0;
  /// Relative jitter amplitude in [0, 1]; 0 = deterministic backoff.
  double jitter = 0.5;
  /// Seed for the jitter RNG (deterministic backoff sequences in tests).
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

/// Tuning of one SolveService instance.
struct ServiceConfig {
  /// Bounded admission queue depth — the backpressure point.
  std::size_t queue_capacity = 64;

  /// When the queue is full: true blocks the submitter until space frees
  /// (flow control), false completes the future immediately with a typed
  /// SolveError::kQueueFull (load shedding; the weighted-fair scheduler
  /// sheds the most over-quota tenant's queued work first instead of
  /// refusing the incoming request outright).
  bool block_when_full = false;

  /// Admission scheduling policy. kFifo is bit-compatible with the
  /// pre-scheduler service (the differential referee); kEdf orders pops
  /// earliest-deadline-first within `edf_window`; kWeightedFair shares
  /// the queue across tenants by quota weight.
  sched::Policy scheduler = sched::Policy::kFifo;

  /// EDF deadline-comparison granularity (see sched::Options).
  std::chrono::nanoseconds edf_window = std::chrono::milliseconds(1);

  /// Per-tenant quotas for the weighted-fair policy; tenants not listed
  /// use default_quota. Tenant "" bills as "default".
  std::map<std::string, sched::TenantQuota> tenant_quotas;
  sched::TenantQuota default_quota;

  /// Worker threads per backend pool (pools are created lazily, one per
  /// backend that actually receives traffic).
  std::size_t workers_per_backend = 4;

  /// Largest same-plan batch the dispatcher hands one worker as a unit.
  std::size_t max_batch = 8;

  /// Cap on dispatched-but-unfinished requests across all pools; while at
  /// the cap the dispatcher lets work accumulate in the admission queue
  /// (where it backpressures and batches) instead of flooding pool deques.
  /// 0 = auto: max_batch * min(workers_per_backend, hardware_concurrency)
  /// — enough to keep every runnable worker fed, low enough that a host
  /// with fewer cores than workers is not oversubscribed with concurrent
  /// multi-megabyte solves evicting each other's working sets.
  std::size_t max_in_flight = 0;

  /// Memoise completed results by content fingerprint: a request identical
  /// to an already-served one (same shape, config, fields, coefficients)
  /// completes from cache without recomputing. Sound because every backend
  /// is a deterministic pure function of the request. The cache is the
  /// bounded two-tier TieredResultCache: `result_cache_capacity` total
  /// entries (a quarter hot, the rest warm) under a hard
  /// `result_cache_bytes` byte cap.
  bool result_cache = true;
  std::size_t result_cache_capacity = 256;
  std::size_t result_cache_bytes = 512ull << 20;

  /// Payload-hash memoisation entries (see FingerprintCache). Bounded:
  /// the pre-QoS unbounded growth path no longer exists.
  std::size_t fingerprint_cache_capacity = 1024;

  /// Admission-time lint strictness (see pw::lint::AdmissionPolicy).
  lint::AdmissionPolicy admission;

  /// Retry schedule for kBackendFault outcomes (see RetryPolicy).
  RetryPolicy retry;

  /// Per-backend circuit breaker: after `failure_threshold` consecutive
  /// faults a backend's breaker opens and requests skip straight to
  /// failover (or fail fast) until a half-open probe succeeds.
  fault::BreakerPolicy breaker;

  /// Graceful degradation: when the requested backend exhausts its retries
  /// (or its breaker is open), re-run the solve on `failover_backend` and
  /// flag the result `degraded`. Disable to surface kBackendFault instead.
  bool failover = true;
  api::Backend failover_backend = api::Backend::kCpuBaseline;

  /// External metrics sink; the service owns a private registry when null.
  obs::MetricsRegistry* metrics = nullptr;

  /// Sharded serving: when set, every solve attempt (failover included)
  /// runs on one resident shard::ShardedSolver built from these options,
  /// one solve at a time, instead of a single-device api::Solver.
  /// Admission, scheduling, deadlines, cancellation, the resilience ladder
  /// and the result cache work as for single-device solves. A device death
  /// inside a solve is the solver's own failover: the re-partitioned answer
  /// keeps the requested backend and is cached like any other.
  std::optional<pw::shard::ShardOptions> shard;
};

/// One per-tenant row of a ServiceReport, keyed by normalised tenant name
/// (requests with an empty tenant bill as "default"). Rows are sorted by
/// tenant name — part of the stable --json schema.
struct TenantReportRow {
  std::string tenant;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;  ///< kQueueFull outcomes (refused or quota-shed)
  std::uint64_t completed = 0;
  double p99_latency_s = 0.0;
};

/// Point-in-time summary of a service: admission/completion counters, the
/// latency and batch-size distributions, cache effectiveness, aggregate
/// throughput, plus the full metrics snapshot for drill-down.
struct ServiceReport {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;            ///< futures completed ok
  std::uint64_t computed = 0;             ///< solves actually executed
  std::uint64_t result_cache_hits = 0;
  std::uint64_t rejected_options = 0;     ///< typed validation failures
  std::uint64_t rejected_lint = 0;        ///< admission lint rejections
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t shed_quota = 0;     ///< queued work evicted by quota shedding
  std::uint64_t sheds_unfair = 0;   ///< scheduler audit (must stay 0)
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  // Resilience counters (pw::fault integration).
  std::uint64_t backend_faults = 0;     ///< kBackendFault attempt outcomes
  std::uint64_t retries = 0;            ///< backoff-then-retry sleeps taken
  std::uint64_t retry_recovered = 0;    ///< solves that succeeded on retry
  /// Degraded results delivered (a failover, or a sharded solve over the
  /// survivors of a device death): one per request, so a degraded answer
  /// shared by coalesced requests or cache hits counts once for each.
  std::uint64_t failovers = 0;
  std::uint64_t failover_failed = 0;    ///< failover attempt also faulted
  std::uint64_t breaker_opens = 0;      ///< total breaker open transitions
  std::uint64_t breaker_short_circuits = 0;  ///< solves skipped, breaker open
  // Tiered result cache (zeroed when the cache is disabled).
  std::uint64_t cache_hot_hits = 0;
  std::uint64_t cache_warm_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_peak_bytes = 0;
  std::uint64_t cache_byte_cap = 0;
  sched::Policy scheduler = sched::Policy::kFifo;
  double uptime_s = 0.0;
  double aggregate_gflops = 0.0;  ///< served FLOPs / uptime
  obs::HistogramSummary latency_s;    ///< submit -> completion
  obs::HistogramSummary batch_size;   ///< per dispatched batch
  std::vector<TenantReportRow> tenants;  ///< sorted by tenant name
  obs::RegistrySnapshot metrics;
};

/// {"service": {...counters...}, "scheduler": {...}, "cache": {...},
///  "tenants": [...sorted rows...], "metrics": <pw::obs snapshot JSON>}
/// The field set and ordering are a stable schema, round-trip-tested.
std::string to_json(const ServiceReport& report);
util::Table to_table(const ServiceReport& report);

/// One admitted request inside the service (public only so the scheduler
/// template can be instantiated over it; not part of the API surface).
struct ServeEntry {
  api::SolveRequest request;
  std::shared_ptr<api::detail::SolveState> state;
  std::shared_ptr<const Plan> plan;
  std::string tenant;  ///< normalised (empty request.tenant -> "default")
  std::uint64_t fingerprint = 0;
  std::uint64_t flops = 0;
  double enqueued_s = 0.0;
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// An asynchronous, batching solve service over pw::api::Solver, or over
/// one resident shard::ShardedSolver when ServiceConfig::shard is set —
/// the one multi-tenant front door for single-device and sharded solves.
///
///   submit(request) --admission--> scheduler --dispatcher--> batches
///        |                (FIFO | EDF | WFQ)                  |
///        +-- typed error future on reject            per-backend pools
///
/// Admission validates options against the request's grid and runs the
/// pw::lint battery (amortised per shape via the PlanCache); a rejected
/// request completes its future with a typed error and never reaches a
/// worker. Admitted requests enter the bounded admission scheduler — a
/// pluggable pw::serve::sched policy: FIFO (bit-compatible with the
/// pre-QoS service), EDF within a batch window, or weighted-fair across
/// tenants with quota shedding. A dispatcher thread drains it in policy
/// order, groups same-plan requests into batches of at most max_batch,
/// and hands each batch to the worker pool of its backend. Workers honour
/// cancellation and per-request deadlines, serve identical requests from
/// the bounded two-tier result cache (single-flight coalesced), and
/// report queue depth / batch size / per-tenant latency percentiles /
/// cache curves / aggregate GFLOPS through pw::obs. Sharded, the workers
/// take turns on the one solver (the whole device set cooperates on each
/// solve); everything before and after the solve is shared code.
class SolveService {
 public:
  explicit SolveService(ServiceConfig config = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admits one request. Always returns a valid future: on rejection
  /// (invalid options, lint failure, backpressure, stopped service) the
  /// future is already completed with the typed error. A quota-shed
  /// victim's future completes with kQueueFull when the weighted-fair
  /// scheduler evicts it in favour of a compliant tenant's request.
  api::SolveFuture submit(api::SolveRequest request);

  /// Convenience fan-in: submit every request, in order.
  std::vector<api::SolveFuture> submit_all(
      std::vector<api::SolveRequest> requests);

  /// Blocks until every admitted request has completed.
  void drain();

  /// Stops the service. With drain_queued, queued work is finished first;
  /// otherwise queued (not yet running) requests complete with
  /// kServiceStopped. Idempotent; the destructor calls shutdown(true).
  void shutdown(bool drain_queued = true);

  bool stopped() const noexcept { return stopped_.load(); }

  ServiceReport report() const;

  const PlanCache& plans() const noexcept { return plans_; }
  obs::MetricsRegistry& metrics() noexcept { return *metrics_; }
  /// The admission scheduler (for depth/audit introspection in tests).
  const sched::Scheduler<ServeEntry>& scheduler() const noexcept {
    return *queue_;
  }
  /// The bounded result cache's counters; nullopt when disabled.
  std::optional<TieredCacheStats> cache_stats() const;
  /// The resident sharded solver; null unless ServiceConfig::shard is set.
  /// Its solves run on the service's workers, so read its report and dead
  /// devices while no request runs (after drain()).
  shard::ShardedSolver* sharded_solver() noexcept { return sharded_.get(); }

 private:
  void dispatcher_loop();
  void dispatch_batch(std::vector<ServeEntry> batch);
  void run_batch(std::vector<ServeEntry>& batch);
  void finish(ServeEntry& entry, api::SolveResult result,
              bool dispatched = true);
  util::ThreadPool& pool_for(api::Backend backend);
  fault::CircuitBreaker& breaker_for(api::Backend backend);
  /// One solve attempt on `backend` (the entry's request with the backend
  /// swapped in), on the sharded solver when there is one. Consults the
  /// "serve.solve.<backend>" fault site first.
  api::SolveResult attempt_solve(const ServeEntry& entry,
                                 const api::BackendSpec& backend);
  /// The full resilience ladder: breaker gate -> retry with backoff ->
  /// failover to config_.failover_backend (degraded). Never throws.
  api::SolveResult resilient_solve(const ServeEntry& entry);
  api::SolveFuture reject(std::shared_ptr<api::detail::SolveState> state,
                          api::SolveError error, api::Backend backend,
                          std::string message = "");
  void shed(ServeEntry& entry, std::string message);

  ServiceConfig config_;
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_;
  PlanCache plans_;
  FingerprintCache fingerprints_;
  std::unique_ptr<sched::Scheduler<ServeEntry>> queue_;
  std::unique_ptr<TieredResultCache> cache_;
  std::unique_ptr<shard::ShardedSolver> sharded_;
  std::mutex shard_mutex_;  ///< one sharded solve at a time
  util::WallTimer uptime_;

  mutable std::mutex mutex_;  // pools, coalescing, pending bookkeeping
  std::condition_variable drained_cv_;
  std::map<api::Backend, std::unique_ptr<util::ThreadPool>> pools_;
  std::map<api::Backend, std::unique_ptr<fault::CircuitBreaker>> breakers_;
  util::Rng retry_rng_;  // jitter; guarded by mutex_
  /// Single-flight coalescing: fingerprint -> entries waiting on a compute
  /// already running on some worker. A key's presence (even with no
  /// waiters) marks the fingerprint as in flight; the computing worker
  /// completes every waiter when it finishes, so N concurrent identical
  /// requests cost one solve, deterministically.
  std::unordered_map<std::uint64_t, std::vector<ServeEntry>> coalesced_;
  std::set<std::string> tenants_;  ///< every tenant ever seen; for report()
  std::size_t pending_ = 0;    // admitted, not yet completed
  std::size_t in_flight_ = 0;  // dispatched to a pool, not yet completed
  std::uint64_t flops_served_ = 0;

  std::atomic<bool> stopped_{false};
  std::atomic<bool> abandon_{false};
  std::thread dispatcher_;
};

}  // namespace pw::serve
