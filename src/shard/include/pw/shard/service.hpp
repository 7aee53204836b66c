#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "pw/serve/plan_cache.hpp"
#include "pw/serve/sched.hpp"
#include "pw/shard/sharded_solver.hpp"
#include "pw/util/table.hpp"

namespace pw::shard {

/// Consistent-hash ring over device ids with virtual nodes — where a
/// request's cached result lives. Removing a device migrates only its
/// keyspace to the ring successors (the property plain modulo hashing
/// lacks), so a board death invalidates one device's cache, not all of
/// them.
class HashRing {
 public:
  explicit HashRing(std::size_t virtual_nodes = 16)
      : virtual_nodes_(virtual_nodes) {}

  void add(std::size_t device);
  void remove(std::size_t device);
  std::size_t size() const noexcept { return devices_; }
  bool empty() const noexcept { return ring_.empty(); }

  /// Owning device of `key` (the first vnode at or after it, wrapping).
  /// Precondition: !empty().
  std::size_t place(std::uint64_t key) const;

 private:
  std::size_t virtual_nodes_;
  std::size_t devices_ = 0;
  std::map<std::uint64_t, std::size_t> ring_;  ///< vnode hash -> device
};

/// Tuning of one ShardedSolveService.
struct ShardServiceConfig {
  ShardOptions shard;  ///< partitioning/interconnect/failover of each solve

  /// Per-device result-cache capacity (entries). The cache for a request
  /// lives on its consistent-hash home device; a dead device's entries die
  /// with it.
  std::size_t cache_capacity_per_device = 64;

  /// Virtual nodes per device on the placement ring.
  std::size_t virtual_nodes = 16;

  /// Admission-time lint strictness, amortised per shape via a PlanCache
  /// exactly like the single-device service.
  lint::AdmissionPolicy admission;

  /// Admission scheduling, shared with the single-device serve tier: every
  /// admitted request transits a pw::serve::sched scheduler before it is
  /// routed, so tenant quotas and policy ordering apply to sharded serving
  /// too. submit() pushes and pops one request (degenerate but uniform);
  /// submit_all() drains whole batches in policy order.
  serve::sched::Options sched;
};

/// Per-device serving counters (device ids are stable across deaths).
struct DeviceStats {
  std::size_t device = 0;
  bool alive = true;
  std::uint64_t admitted = 0;    ///< requests homed on this device
  std::uint64_t completed = 0;   ///< completed ok while homed here
  std::uint64_t cache_hits = 0;  ///< served from this device's result cache
  std::uint64_t faults = 0;      ///< solves during which this device died
  std::size_t cached_entries = 0;
};

/// Point-in-time summary of the sharded service.
struct ShardServiceReport {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t computed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t rejected = 0;      ///< validation + lint rejections
  std::uint64_t shed = 0;          ///< scheduler refusals/quota evictions
  std::uint64_t degraded = 0;      ///< completions flagged degraded
  std::uint64_t failovers = 0;     ///< solves that survived a device death
  std::uint64_t cpu_failovers = 0; ///< ladder bottomed out on the CPU rung
  std::vector<DeviceStats> devices;
};

util::Table to_table(const ShardServiceReport& report);

/// Routes solve requests across the simulated device replicas of one
/// ShardedSolver: each request is fingerprinted (pw::serve's content
/// fingerprint), placed on its consistent-hash home device, and served from
/// that device's result cache when an identical request already ran.
/// Misses run the full sharded solve (every alive device cooperates on the
/// partition); completions are cached on the home device. When a solve
/// kills a device, the service drops it from the ring — its cache dies
/// with it, its keyspace migrates to the ring successors — and the request
/// itself completes through the solver's re-partition/CPU-failover ladder,
/// flagged degraded. Thread-safe: concurrent submitters share admission and
/// the caches, and their cache misses run one at a time on the one
/// ShardedSolver (the whole device set, with its resident partition and
/// per-device workers, cooperates on each solve).
class ShardedSolveService {
 public:
  explicit ShardedSolveService(ShardServiceConfig config = {});

  /// Admits, routes and (cache miss) executes one request — via the
  /// admission scheduler, like every other submission.
  api::SolveResult submit(const api::SolveRequest& request);

  /// Batch fan-in: admits every request, pushes the admitted ones through
  /// the admission scheduler and executes them in *policy* order (EDF
  /// deadlines, WFQ tenant fairness). Results return in request order;
  /// a request the scheduler refuses or quota-sheds completes
  /// kQueueFull, typed, without running.
  std::vector<api::SolveResult> submit_all(
      std::vector<api::SolveRequest> requests);

  /// The admission scheduler (depth/audit introspection in tests).
  const serve::sched::Scheduler<std::size_t>& scheduler() const noexcept {
    return *scheduler_;
  }

  /// Home device the ring currently assigns to `request` (kNoHome when
  /// every device is dead).
  static constexpr std::size_t kNoHome = static_cast<std::size_t>(-1);
  std::size_t home_of(const api::SolveRequest& request);

  ShardServiceReport report() const;

  const serve::PlanCache& plans() const noexcept { return plans_; }
  ShardedSolver& solver() noexcept { return solver_; }

 private:
  struct DeviceCache {
    std::map<std::uint64_t, std::shared_ptr<const api::SolveResult>> entries;
    std::deque<std::uint64_t> order;  ///< FIFO eviction
  };

  void note_deaths_locked();
  /// Validation + lint; returns the typed rejection, nullopt when admitted.
  std::optional<api::SolveResult> admission_error(
      const api::SolveRequest& request);
  /// Fingerprint -> ring home -> cache hit or full sharded solve.
  api::SolveResult route_and_solve(const api::SolveRequest& request);

  ShardServiceConfig config_;
  ShardedSolver solver_;
  serve::PlanCache plans_;
  serve::FingerprintCache fingerprints_;
  std::unique_ptr<serve::sched::Scheduler<std::size_t>> scheduler_;
  std::mutex sched_mutex_;  ///< serialises push/drain waves on scheduler_
  /// Serialises solver_ solves and the reads of their report; taken before
  /// mutex_, never while holding it.
  std::mutex solve_mutex_;

  mutable std::mutex mutex_;
  HashRing ring_;
  std::vector<DeviceCache> caches_;   ///< indexed by device id
  std::vector<DeviceStats> devices_;  ///< indexed by device id
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t computed_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t cpu_failovers_ = 0;
};

}  // namespace pw::shard
