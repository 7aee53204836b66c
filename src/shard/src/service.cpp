#include "pw/shard/service.hpp"

#include <algorithm>

namespace pw::shard {

namespace {

/// splitmix64 — the ring's vnode hash (fast, well-mixed, dependency-free).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t vnode_hash(std::size_t device, std::size_t vnode) {
  return mix64(mix64(static_cast<std::uint64_t>(device) + 1) ^
               static_cast<std::uint64_t>(vnode));
}

}  // namespace

void HashRing::add(std::size_t device) {
  for (std::size_t v = 0; v < virtual_nodes_; ++v) {
    ring_.emplace(vnode_hash(device, v), device);
  }
  ++devices_;
}

void HashRing::remove(std::size_t device) {
  std::size_t erased = 0;
  for (std::size_t v = 0; v < virtual_nodes_; ++v) {
    erased += ring_.erase(vnode_hash(device, v));
  }
  if (erased != 0) {
    --devices_;
  }
}

std::size_t HashRing::place(std::uint64_t key) const {
  auto it = ring_.lower_bound(key);
  if (it == ring_.end()) {
    it = ring_.begin();
  }
  return it->second;
}

ShardedSolveService::ShardedSolveService(ShardServiceConfig config)
    : config_(std::move(config)),
      solver_(config_.shard),
      plans_(config_.admission),
      scheduler_(serve::sched::make_scheduler<std::size_t>(config_.sched)),
      ring_(config_.virtual_nodes) {
  const std::size_t devices = std::max<std::size_t>(1, config_.shard.devices);
  caches_.resize(devices);
  devices_.resize(devices);
  for (std::size_t device = 0; device < devices; ++device) {
    devices_[device].device = device;
    ring_.add(device);
  }
}

std::size_t ShardedSolveService::home_of(const api::SolveRequest& request) {
  const std::uint64_t key = mix64(fingerprints_.fingerprint(request));
  std::lock_guard lock(mutex_);
  return ring_.empty() ? kNoHome : ring_.place(key);
}

void ShardedSolveService::note_deaths_locked() {
  // Sync ring membership with the solver's dead set: a device that died
  // during the last solve leaves the ring, dropping its cache — the
  // keyspace migrates to its ring successors.
  for (std::size_t device = 0; device < devices_.size(); ++device) {
    if (!devices_[device].alive) {
      continue;
    }
    // The authoritative death signal is the solver's per-device fault
    // counter: it increments exactly when that simulated board was marked
    // dead mid-solve.
    const std::uint64_t faults = solver_.metrics().counter(
        "shard." + std::to_string(device) + ".faults");
    if (faults > 0) {
      devices_[device].alive = false;
      devices_[device].faults = faults;
      ring_.remove(device);
      caches_[device] = DeviceCache{};
    }
  }
}

std::optional<api::SolveResult> ShardedSolveService::admission_error(
    const api::SolveRequest& request) {
  {
    std::lock_guard lock(mutex_);
    ++submitted_;
  }

  // Admission: the shared request check, then the same amortised lint
  // battery the single-device service runs, keyed per request shape.
  if (std::optional<api::SolveResult> rejection =
          api::check_request(request)) {
    std::lock_guard lock(mutex_);
    ++rejected_;
    return rejection;
  }
  const grid::GridDims dims = request.state->u.dims();
  const auto plan = plans_.lookup(dims, request.options);
  if (!plan->admitted) {
    std::lock_guard lock(mutex_);
    ++rejected_;
    return api::error_result(api::SolveError::kRejectedByLint,
                             request.options.backend.backend(),
                             plan->rejection);
  }
  return std::nullopt;
}

api::SolveResult ShardedSolveService::submit(
    const api::SolveRequest& request) {
  // One request is a batch of one: the synchronous path transits the
  // admission scheduler exactly like a fan-in, so policy bookkeeping
  // (queued_for, audit) covers every submission path.
  return submit_all({request}).front();
}

std::vector<api::SolveResult> ShardedSolveService::submit_all(
    std::vector<api::SolveRequest> requests) {
  std::vector<api::SolveResult> results(requests.size());
  if (requests.empty()) {
    return results;
  }
  std::vector<char> settled(requests.size(), 0);
  std::vector<std::size_t> order;  ///< execution order, policy-chosen
  order.reserve(requests.size());
  {
    // Push/drain waves are serialised so a concurrent submit never pops
    // another batch's index; the scheduler stays the one shared instance.
    std::lock_guard sched_lock(sched_mutex_);
    std::size_t next = 0;
    while (next < requests.size()) {
      const api::SolveRequest& request = requests[next];
      if (auto rejection = admission_error(request)) {
        results[next] = std::move(*rejection);
        settled[next] = 1;
        ++next;
        continue;
      }
      serve::sched::Scheduled<std::size_t> item;
      item.meta.tenant =
          request.tenant.empty() ? std::string("default") : request.tenant;
      item.meta.priority = request.priority;
      if (request.timeout.count() > 0) {
        item.meta.deadline =
            std::chrono::steady_clock::now() + request.timeout;
      }
      item.value = next;
      std::vector<serve::sched::Scheduled<std::size_t>> evicted;
      const bool accepted = scheduler_->try_push(std::move(item), evicted);
      for (const serve::sched::Scheduled<std::size_t>& victim : evicted) {
        results[victim.value] = api::error_result(
            api::SolveError::kQueueFull,
            requests[victim.value].options.backend.backend(),
            "shed by quota: tenant " + victim.meta.tenant +
                " queued over its fair share");
        settled[victim.value] = 1;
        std::lock_guard lock(mutex_);
        ++shed_;
      }
      if (!accepted) {
        // Full of compliant traffic: drain a policy-ordered wave, retry.
        bool drained = false;
        while (auto popped = scheduler_->try_pop()) {
          order.push_back(popped->value);
          drained = true;
        }
        if (!drained) {
          results[next] = api::error_result(
              api::SolveError::kQueueFull,
              request.options.backend.backend(),
              "admission scheduler refused the request");
          settled[next] = 1;
          std::lock_guard lock(mutex_);
          ++shed_;
          ++next;
        }
        continue;
      }
      ++next;
    }
    while (auto popped = scheduler_->try_pop()) {
      order.push_back(popped->value);
    }
  }
  for (const std::size_t index : order) {
    if (!settled[index]) {
      results[index] = route_and_solve(requests[index]);
      settled[index] = 1;
    }
  }
  return results;
}

api::SolveResult ShardedSolveService::route_and_solve(
    const api::SolveRequest& request) {
  const std::uint64_t fingerprint = fingerprints_.fingerprint(request);
  const std::uint64_t key = mix64(fingerprint);

  // Route: home device by consistent hash; serve from its cache on a hit.
  {
    std::lock_guard lock(mutex_);
    if (!ring_.empty()) {
      const std::size_t home = ring_.place(key);
      ++devices_[home].admitted;
      auto& cache = caches_[home];
      const auto hit = cache.entries.find(fingerprint);
      if (hit != cache.entries.end()) {
        ++cache_hits_;
        ++completed_;
        ++devices_[home].cache_hits;
        ++devices_[home].completed;
        api::SolveResult result = *hit->second;
        result.cached = true;
        return result;
      }
    }
  }

  // Miss: the whole device set cooperates on the sharded solve, one solve
  // at a time. solve_mutex_ also covers the reads of the solver's report
  // and death counters below, which the next solve overwrites.
  std::lock_guard solve_lock(solve_mutex_);
  api::SolveResult result = solver_.solve(request);

  std::lock_guard lock(mutex_);
  ++computed_;
  const std::size_t deaths_before =
      static_cast<std::size_t>(std::count_if(
          devices_.begin(), devices_.end(),
          [](const DeviceStats& d) { return !d.alive; }));
  note_deaths_locked();
  const std::size_t deaths_after =
      static_cast<std::size_t>(std::count_if(
          devices_.begin(), devices_.end(),
          [](const DeviceStats& d) { return !d.alive; }));
  if (deaths_after > deaths_before && result.ok()) {
    ++failovers_;
  }
  if (solver_.last_report().cpu_failover) {
    ++cpu_failovers_;
  }
  if (result.ok()) {
    ++completed_;
    if (result.degraded) {
      ++degraded_;
    }
    if (!ring_.empty()) {
      // (Re-)place on the post-death ring: the home may have migrated.
      const std::size_t home = ring_.place(key);
      ++devices_[home].completed;
      auto& cache = caches_[home];
      if (cache.entries.emplace(fingerprint,
                                std::make_shared<api::SolveResult>(result))
              .second) {
        cache.order.push_back(fingerprint);
        while (cache.order.size() > config_.cache_capacity_per_device) {
          cache.entries.erase(cache.order.front());
          cache.order.pop_front();
        }
      }
    }
  }
  return result;
}

ShardServiceReport ShardedSolveService::report() const {
  std::lock_guard lock(mutex_);
  ShardServiceReport report;
  report.submitted = submitted_;
  report.completed = completed_;
  report.computed = computed_;
  report.cache_hits = cache_hits_;
  report.rejected = rejected_;
  report.shed = shed_;
  report.degraded = degraded_;
  report.failovers = failovers_;
  report.cpu_failovers = cpu_failovers_;
  report.devices = devices_;
  for (DeviceStats& device : report.devices) {
    device.cached_entries = caches_[device.device].entries.size();
  }
  return report;
}

util::Table to_table(const ShardServiceReport& report) {
  util::Table table("Sharded serving: per-device routing and failover");
  table.header({"device", "alive", "admitted", "completed", "cache_hits",
                "faults", "cached"});
  for (const DeviceStats& device : report.devices) {
    table.row({std::to_string(device.device), device.alive ? "yes" : "DEAD",
               std::to_string(device.admitted),
               std::to_string(device.completed),
               std::to_string(device.cache_hits),
               std::to_string(device.faults),
               std::to_string(device.cached_entries)});
  }
  table.row({"total",
             std::to_string(report.failovers) + " failovers",
             std::to_string(report.submitted),
             std::to_string(report.completed),
             std::to_string(report.cache_hits),
             std::to_string(report.cpu_failovers) + " cpu",
             std::to_string(report.rejected) + " rejected"});
  return table;
}

}  // namespace pw::shard
