#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "pw/api/request.hpp"

namespace pw::serve::sched {

/// Which admission scheduler a service runs. kFifo is the bit-compatible
/// default — request-for-request identical to the pre-scheduler service
/// (the differential referee the QoS tests replay against).
enum class Policy {
  kFifo,          ///< strict admission order, reject-newest when full
  kEdf,           ///< earliest deadline first within a batch window
  kWeightedFair,  ///< weighted fair queuing across tenants, quota shedding
};

const char* to_string(Policy policy);
/// Inverse of to_string: "edf" -> kEdf; nullopt for anything else.
std::optional<Policy> parse_policy(std::string_view name);

/// Every Policy enumerator, for exhaustive iteration in tests and CLIs.
inline constexpr std::array<Policy, 3> kAllPolicies = {
    Policy::kFifo,
    Policy::kEdf,
    Policy::kWeightedFair,
};

/// Per-tenant admission quota. A tenant's *share* of the queue is
/// max_queued when set, otherwise its weight-proportional slice of the
/// capacity across the tenants currently queued. A tenant queued above its
/// share is over-quota: when the queue is full, the weighted-fair policy
/// sheds from the most over-quota tenant first — never from a tenant
/// within its share while an over-quota tenant stays admitted.
struct TenantQuota {
  double weight = 1.0;         ///< fair-share weight (WFQ virtual time)
  std::size_t max_queued = 0;  ///< hard queued cap; 0 = proportional share
};

/// Tuning of one scheduler instance.
struct Options {
  Policy policy = Policy::kFifo;
  /// Bounded queue depth — the backpressure point, as before the refactor.
  std::size_t capacity = 64;
  /// EDF compares deadlines at this granularity: two deadlines inside one
  /// window are "equal", and the tie resolves by priority then admission
  /// order. Keeps near-identical deadlines FIFO instead of churning.
  std::chrono::nanoseconds edf_window = std::chrono::milliseconds(1);
  /// Per-tenant quotas; tenants not listed use default_quota.
  std::map<std::string, TenantQuota> quotas;
  TenantQuota default_quota;
};

/// Scheduling metadata travelling with every queued item.
struct ItemMeta {
  std::string tenant;  ///< normalised: never empty ("default")
  api::Priority priority = api::Priority::kNormal;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  double cost = 1.0;       ///< WFQ virtual-time increment (e.g. flops)
  std::uint64_t seq = 0;   ///< admission order, assigned at push
};

template <typename T>
struct Scheduled {
  ItemMeta meta;
  T value;
};

/// Shed/fairness audit counters, kept by every scheduler so the storm
/// bench can gate the invariant at runtime rather than by construction.
struct Audit {
  std::uint64_t sheds = 0;         ///< items refused or evicted when full
  std::uint64_t unfair_sheds = 0;  ///< a within-share tenant shed while an
                                   ///< over-share tenant stayed admitted
};

/// The pluggable admission queue behind SolveService: a bounded,
/// closeable MPMC queue whose *pop order* (and full-queue shed choice) is
/// the scheduling policy. Implementations are thread-safe.
template <typename T>
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Non-blocking admission. Returns false when the item was refused
  /// (full or closed). A policy may instead evict queued items into
  /// `shed` to make room (weighted-fair quota shedding); the caller
  /// completes those with a typed queue-full error.
  virtual bool try_push(Scheduled<T> item,
                        std::vector<Scheduled<T>>& shed) = 0;

  /// Blocking admission (flow control): waits for space, never sheds.
  /// False only once the scheduler is closed.
  virtual bool push(Scheduled<T> item) = 0;

  /// Best queued item by this policy's order; nullopt when empty.
  virtual std::optional<Scheduled<T>> try_pop() = 0;

  /// Blocking pop with a timeout; nullopt on timeout or once closed and
  /// drained (distinguish via closed()).
  virtual std::optional<Scheduled<T>> pop_for(
      std::chrono::milliseconds timeout) = 0;

  /// Stops admission but lets consumers drain what remains.
  virtual void close() = 0;
  virtual bool closed() const = 0;

  virtual std::size_t size() const = 0;
  virtual std::size_t capacity() const = 0;
  virtual Policy policy() const = 0;

  /// Items currently queued for `tenant` (normalised name).
  virtual std::size_t queued_for(const std::string& tenant) const = 0;

  virtual Audit audit() const = 0;
};

/// Builds the scheduler `options.policy` names.
/// Declared here, defined below (the implementations are header-only
/// templates so the service header can instantiate Scheduler<Entry>).
template <typename T>
std::unique_ptr<Scheduler<T>> make_scheduler(const Options& options);

/// The serve.sched.push fault site's verdict for one admission attempt.
/// kSpuriousLatency was already applied inline; any other armed fault at
/// the site forces a shed (the request completes kQueueFull, typed, with
/// the injection named in the message). Costs one atomic load disarmed.
enum class PushFault {
  kNone,
  kShed,
};
PushFault consult_push_site();

/// The serve.sched.pop site: latency-only (a slow dispatcher), consulted
/// once per successful pop. Costs one atomic load disarmed.
void consult_pop_site();

// ---------------------------------------------------------------------------
// Implementations. All three share LockedScheduler's mutex/condvar shell
// and differ in the queued-item container (the policy order).

namespace detail {

inline int priority_rank(api::Priority priority) {
  switch (priority) {
    case api::Priority::kBatch:
      return 0;
    case api::Priority::kNormal:
      return 1;
    case api::Priority::kInteractive:
      return 2;
  }
  return 1;
}

/// Mutex/condvar shell shared by the policies: blocking push, timed pop,
/// close-then-drain semantics — the contract of the bounded queue the
/// service admitted through before schedulers, so the FIFO instantiation
/// is bit-compatible with it.
template <typename T>
class LockedScheduler : public Scheduler<T> {
 public:
  explicit LockedScheduler(const Options& options)
      : options_(options),
        capacity_(options.capacity == 0 ? 1 : options.capacity) {}

  bool try_push(Scheduled<T> item, std::vector<Scheduled<T>>& shed) override {
    bool accepted = false;
    {
      std::lock_guard lock(mutex_);
      if (closed_) {
        return false;
      }
      item.meta.seq = next_seq_++;
      if (size_locked() >= capacity_) {
        accepted = shed_for_locked(item, shed);
        if (!accepted) {
          note_shed_locked(item.meta.tenant, /*incoming=*/true);
          return false;
        }
      }
      insert_locked(std::move(item));
      accepted = true;
    }
    not_empty_.notify_one();
    return accepted;
  }

  bool push(Scheduled<T> item) override {
    {
      std::unique_lock lock(mutex_);
      not_full_.wait(lock, [this] {
        return closed_ || size_locked() < capacity_;
      });
      if (closed_) {
        return false;
      }
      item.meta.seq = next_seq_++;
      insert_locked(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  std::optional<Scheduled<T>> try_pop() override {
    std::optional<Scheduled<T>> item;
    {
      std::lock_guard lock(mutex_);
      if (size_locked() == 0) {
        return std::nullopt;
      }
      item.emplace(pop_best_locked());
    }
    not_full_.notify_one();
    return item;
  }

  std::optional<Scheduled<T>> pop_for(
      std::chrono::milliseconds timeout) override {
    std::optional<Scheduled<T>> item;
    {
      std::unique_lock lock(mutex_);
      not_empty_.wait_for(lock, timeout,
                          [this] { return closed_ || size_locked() > 0; });
      if (size_locked() == 0) {
        return std::nullopt;
      }
      item.emplace(pop_best_locked());
    }
    not_full_.notify_one();
    return item;
  }

  void close() override {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const override {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t size() const override {
    std::lock_guard lock(mutex_);
    return size_locked();
  }

  std::size_t capacity() const override { return capacity_; }

  std::size_t queued_for(const std::string& tenant) const override {
    std::lock_guard lock(mutex_);
    const auto it = queued_.find(tenant);
    return it == queued_.end() ? 0 : it->second;
  }

  Audit audit() const override {
    std::lock_guard lock(mutex_);
    return audit_;
  }

 protected:
  /// Policy container hooks, called under mutex_.
  virtual void insert_locked(Scheduled<T> item) = 0;
  virtual Scheduled<T> pop_best_locked() = 0;
  virtual std::size_t size_locked() const = 0;

  /// Full-queue hook: make room for `incoming` by evicting queued items
  /// into `shed` (quota policies), or return false to refuse it.
  virtual bool shed_for_locked(const Scheduled<T>& incoming,
                               std::vector<Scheduled<T>>& shed) {
    (void)incoming;
    (void)shed;
    return false;
  }

  /// The tenant's share of the queue: its hard cap when configured, else
  /// its weight-proportional slice of capacity over the tenants queued.
  std::size_t share_locked(const std::string& tenant) const {
    const TenantQuota& quota = quota_for(tenant);
    if (quota.max_queued != 0) {
      return quota.max_queued;
    }
    double total_weight = 0.0;
    bool tenant_counted = false;
    for (const auto& [name, queued] : queued_) {
      if (queued == 0 && name != tenant) {
        continue;
      }
      total_weight += quota_for(name).weight;
      tenant_counted |= name == tenant;
    }
    if (!tenant_counted) {
      total_weight += quota.weight;
    }
    if (total_weight <= 0.0) {
      return capacity_;
    }
    const double share =
        static_cast<double>(capacity_) * quota.weight / total_weight;
    return static_cast<std::size_t>(share) + 1;  // ceil-ish, never zero
  }

  const TenantQuota& quota_for(const std::string& tenant) const {
    const auto it = options_.quotas.find(tenant);
    return it == options_.quotas.end() ? options_.default_quota : it->second;
  }

  bool over_share_locked(const std::string& tenant) const {
    const auto it = queued_.find(tenant);
    const std::size_t queued = it == queued_.end() ? 0 : it->second;
    return queued > share_locked(tenant);
  }

  /// Audits one shed (refusal or eviction) of `victim`'s traffic: unfair
  /// when the victim sits within its share while another tenant queues
  /// over its own. Runtime verification of the by-construction guarantee.
  /// `incoming` marks a refusal of a not-yet-queued item, which counts
  /// toward its tenant's queue exactly as the shed rule counts it — the
  /// audit and the rule must agree at the share boundary.
  void note_shed_locked(const std::string& victim, bool incoming) {
    ++audit_.sheds;
    const auto it = queued_.find(victim);
    const std::size_t queued = (it == queued_.end() ? 0 : it->second) +
                               (incoming ? 1 : 0);
    if (queued > share_locked(victim)) {
      return;  // the victim itself is over-share: always fair
    }
    for (const auto& [name, queued] : queued_) {
      if (name != victim && queued > 0 && over_share_locked(name)) {
        ++audit_.unfair_sheds;
        return;
      }
    }
  }

  void count_queued_locked(const std::string& tenant, std::ptrdiff_t delta) {
    queued_[tenant] = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(queued_[tenant]) + delta);
  }

  const Options options_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  bool closed_ = false;
  std::uint64_t next_seq_ = 0;
  std::map<std::string, std::size_t> queued_;  ///< per-tenant live counts
  Audit audit_;
};

/// Strict admission order; refuses the newest item when full. The
/// differential referee: request-for-request identical to the
/// pre-scheduler bounded-queue service.
template <typename T>
class FifoScheduler final : public LockedScheduler<T> {
 public:
  using LockedScheduler<T>::LockedScheduler;
  Policy policy() const override { return Policy::kFifo; }

 protected:
  void insert_locked(Scheduled<T> item) override {
    this->count_queued_locked(item.meta.tenant, +1);
    items_.push_back(std::move(item));
  }

  Scheduled<T> pop_best_locked() override {
    Scheduled<T> item = std::move(items_.front());
    items_.pop_front();
    this->count_queued_locked(item.meta.tenant, -1);
    return item;
  }

  std::size_t size_locked() const override { return items_.size(); }

 private:
  std::deque<Scheduled<T>> items_;
};

/// Earliest deadline first, at edf_window granularity: deadlines are
/// bucketed by the window, equal buckets resolve by priority (interactive
/// first) then admission order, and deadline-free items sort after every
/// deadline. Refuses the newest item when full, like FIFO.
template <typename T>
class EdfScheduler final : public LockedScheduler<T> {
 public:
  using LockedScheduler<T>::LockedScheduler;
  Policy policy() const override { return Policy::kEdf; }

 protected:
  void insert_locked(Scheduled<T> item) override {
    this->count_queued_locked(item.meta.tenant, +1);
    items_.emplace(key_of(item.meta), std::move(item));
  }

  Scheduled<T> pop_best_locked() override {
    auto node = items_.extract(items_.begin());
    Scheduled<T> item = std::move(node.mapped());
    this->count_queued_locked(item.meta.tenant, -1);
    return item;
  }

  std::size_t size_locked() const override { return items_.size(); }

 private:
  /// (deadline bucket, -priority, seq): lexicographically smallest = next.
  using Key = std::tuple<std::uint64_t, int, std::uint64_t>;

  Key key_of(const ItemMeta& meta) const {
    std::uint64_t bucket = std::numeric_limits<std::uint64_t>::max();
    if (meta.deadline) {
      const auto since_epoch = meta.deadline->time_since_epoch();
      const auto window = this->options_.edf_window;
      const std::uint64_t ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch)
              .count());
      const std::uint64_t window_ns = static_cast<std::uint64_t>(
          std::max<std::chrono::nanoseconds::rep>(1, window.count()));
      bucket = ns / window_ns;
    }
    return {bucket, -priority_rank(meta.priority), meta.seq};
  }

  std::multimap<Key, Scheduled<T>> items_;
};

/// Start-time fair queuing across tenants: every tenant owns a FIFO
/// subqueue and a virtual finish tag; pop serves the smallest tag and
/// advances it by cost/weight. When full, the *most over-share* tenant
/// sheds its newest lowest-priority item — a compliant tenant is never
/// shed while an over-quota tenant stays admitted.
template <typename T>
class WfqScheduler final : public LockedScheduler<T> {
 public:
  using LockedScheduler<T>::LockedScheduler;
  Policy policy() const override { return Policy::kWeightedFair; }

 protected:
  void insert_locked(Scheduled<T> item) override {
    const std::string tenant = item.meta.tenant;
    Lane& lane = lanes_[tenant];
    if (lane.items.empty()) {
      // (Re)activating: never collect credit from an idle period.
      lane.finish = std::max(lane.finish, virtual_time_);
    }
    this->count_queued_locked(tenant, +1);
    lane.items.push_back(std::move(item));
  }

  Scheduled<T> pop_best_locked() override {
    auto best = lanes_.end();
    for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
      if (it->second.items.empty()) {
        continue;
      }
      if (best == lanes_.end() || it->second.finish < best->second.finish) {
        best = it;
      }
    }
    Lane& lane = best->second;
    Scheduled<T> item = std::move(lane.items.front());
    lane.items.pop_front();
    virtual_time_ = lane.finish;
    const double weight = std::max(1e-9, this->quota_for(best->first).weight);
    lane.finish += std::max(1.0, item.meta.cost) / weight;
    this->count_queued_locked(item.meta.tenant, -1);
    return item;
  }

  std::size_t size_locked() const override {
    std::size_t total = 0;
    for (const auto& [tenant, lane] : lanes_) {
      total += lane.items.size();
    }
    return total;
  }

  bool shed_for_locked(const Scheduled<T>& incoming,
                       std::vector<Scheduled<T>>& shed) override {
    // Victim: the tenant most over its share, by queued/share ratio. The
    // incoming item counts as one queued for its own tenant, so a hog
    // submitting into a full queue sheds itself, not a compliant tenant.
    auto victim = lanes_.end();
    double worst_ratio = 1.0;  // only tenants strictly over-share qualify
    for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
      std::size_t queued = it->second.items.size();
      if (it->first == incoming.meta.tenant) {
        ++queued;
      }
      if (queued == 0) {
        continue;
      }
      const double share =
          static_cast<double>(this->share_locked(it->first));
      const double ratio = static_cast<double>(queued) / std::max(1.0, share);
      if (ratio > worst_ratio) {
        worst_ratio = ratio;
        victim = it;
      }
    }
    if (victim == lanes_.end()) {
      // No tenant is over-share: a full queue of compliant traffic.
      // Refusing the incoming item is the only capacity-respecting move.
      return false;
    }
    if (victim->first == incoming.meta.tenant) {
      // The incoming tenant is itself the most over-share. Evicting its
      // own queued item for the newcomer would just churn; refuse.
      return false;
    }
    // Evict the victim's newest lowest-priority item.
    std::deque<Scheduled<T>>& items = victim->second.items;
    auto evict = items.end();
    int lowest = std::numeric_limits<int>::max();
    for (auto it = items.begin(); it != items.end(); ++it) {
      if (priority_rank(it->meta.priority) <= lowest) {
        lowest = priority_rank(it->meta.priority);
        evict = it;
      }
    }
    this->note_shed_locked(victim->first, /*incoming=*/false);
    this->count_queued_locked(victim->first, -1);
    shed.push_back(std::move(*evict));
    items.erase(evict);
    return true;
  }

 private:
  struct Lane {
    std::deque<Scheduled<T>> items;
    double finish = 0.0;  ///< SFQ virtual finish tag
  };

  std::map<std::string, Lane> lanes_;
  double virtual_time_ = 0.0;
};

}  // namespace detail

template <typename T>
std::unique_ptr<Scheduler<T>> make_scheduler(const Options& options) {
  switch (options.policy) {
    case Policy::kFifo:
      return std::make_unique<detail::FifoScheduler<T>>(options);
    case Policy::kEdf:
      return std::make_unique<detail::EdfScheduler<T>>(options);
    case Policy::kWeightedFair:
      return std::make_unique<detail::WfqScheduler<T>>(options);
  }
  return std::make_unique<detail::FifoScheduler<T>>(options);
}

}  // namespace pw::serve::sched
