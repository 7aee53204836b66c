// The QoS battery: the pluggable admission schedulers (FIFO differential
// referee, EDF ordering properties over seeded random draws, weighted-fair
// interleaving and quota shedding with its fairness audit), the bounded
// two-tier result cache, the bounded fingerprint memo, the traffic
// generator (determinism, replayable spec strings, Zipf/tenant/arrival
// statistics), and the service-level contracts that ride on them: a FIFO
// service stays request-for-request identical to direct solves on a
// replayed trace, scheduling policy never changes results, quota sheds
// complete typed, and the ServiceReport carries per-tenant rows behind a
// stable JSON schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pw/advect/reference.hpp"
#include "pw/grid/compare.hpp"
#include "pw/serve/plan_cache.hpp"
#include "pw/serve/sched.hpp"
#include "pw/serve/service.hpp"
#include "pw/serve/tiered_cache.hpp"
#include "pw/serve/trace.hpp"
#include "pw/serve/traffic.hpp"

namespace {

using namespace pw;
using namespace std::chrono_literals;
using sched_t = serve::sched::Scheduler<int>;

serve::sched::Scheduled<int> item(int value, std::string tenant = "default",
                                  api::Priority priority =
                                      api::Priority::kNormal) {
  serve::sched::Scheduled<int> it;
  it.meta.tenant = std::move(tenant);
  it.meta.priority = priority;
  it.value = value;
  return it;
}

std::unique_ptr<sched_t> make(serve::sched::Policy policy,
                              std::size_t capacity,
                              serve::sched::Options extra = {}) {
  extra.policy = policy;
  extra.capacity = capacity;
  return serve::sched::make_scheduler<int>(extra);
}

/// Drains a scheduler via try_pop into the values popped, in pop order.
std::vector<int> drain_values(sched_t& sched) {
  std::vector<int> values;
  while (auto popped = sched.try_pop()) {
    values.push_back(popped->value);
  }
  return values;
}

// ---------------------------------------------------------------------------
// enum exhaustiveness

TEST(QosEnums, PolicyRoundTripsThroughStrings) {
  std::set<std::string> names;
  for (const serve::sched::Policy policy : serve::sched::kAllPolicies) {
    const char* name = serve::sched::to_string(policy);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    const auto parsed = serve::sched::parse_policy(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_EQ(names.size(), serve::sched::kAllPolicies.size());
  EXPECT_FALSE(serve::sched::parse_policy("round-robin").has_value());
  EXPECT_FALSE(serve::sched::parse_policy("").has_value());
}

TEST(QosEnums, PriorityRoundTripsThroughStrings) {
  std::set<std::string> names;
  for (const api::Priority priority : api::kAllPriorities) {
    const char* name = api::to_string(priority);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    const auto parsed = api::parse_priority(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, priority);
  }
  EXPECT_EQ(names.size(), api::kAllPriorities.size());
  EXPECT_FALSE(api::parse_priority("urgent").has_value());
}

// ---------------------------------------------------------------------------
// FIFO: the differential referee

TEST(QosSchedFifo, PopsInAdmissionOrderAndRefusesNewestWhenFull) {
  auto sched = make(serve::sched::Policy::kFifo, 3);
  std::vector<serve::sched::Scheduled<int>> shed;
  EXPECT_TRUE(sched->try_push(item(0), shed));
  EXPECT_TRUE(sched->try_push(item(1), shed));
  EXPECT_TRUE(sched->try_push(item(2), shed));
  EXPECT_FALSE(sched->try_push(item(3), shed));  // full: newest refused
  EXPECT_TRUE(shed.empty());                     // FIFO never evicts
  EXPECT_EQ(sched->size(), 3u);
  EXPECT_EQ(drain_values(*sched), (std::vector<int>{0, 1, 2}));
  const serve::sched::Audit audit = sched->audit();
  EXPECT_EQ(audit.sheds, 1u);
  EXPECT_EQ(audit.unfair_sheds, 0u);
}

TEST(QosSchedFifo, CloseStopsAdmissionButDrainsTheQueue) {
  auto sched = make(serve::sched::Policy::kFifo, 8);
  std::vector<serve::sched::Scheduled<int>> shed;
  EXPECT_TRUE(sched->try_push(item(1), shed));
  EXPECT_TRUE(sched->try_push(item(2), shed));
  sched->close();
  EXPECT_TRUE(sched->closed());
  EXPECT_FALSE(sched->try_push(item(3), shed));
  EXPECT_FALSE(sched->push(item(4)));  // blocking push returns once closed
  auto first = sched->pop_for(10ms);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->value, 1);
  EXPECT_EQ(drain_values(*sched), (std::vector<int>{2}));
  EXPECT_FALSE(sched->pop_for(1ms).has_value());  // closed and drained
}

TEST(QosSchedFifo, TracksPerTenantQueueDepth) {
  auto sched = make(serve::sched::Policy::kFifo, 8);
  std::vector<serve::sched::Scheduled<int>> shed;
  ASSERT_TRUE(sched->try_push(item(0, "a"), shed));
  ASSERT_TRUE(sched->try_push(item(1, "a"), shed));
  ASSERT_TRUE(sched->try_push(item(2, "b"), shed));
  EXPECT_EQ(sched->queued_for("a"), 2u);
  EXPECT_EQ(sched->queued_for("b"), 1u);
  EXPECT_EQ(sched->queued_for("never-seen"), 0u);
  (void)sched->try_pop();
  EXPECT_EQ(sched->queued_for("a"), 1u);
}

// ---------------------------------------------------------------------------
// EDF

TEST(QosSchedEdf, OrdersByDeadlineBucketThenPriorityThenAdmission) {
  serve::sched::Options options;
  options.edf_window = 1ms;
  auto sched = make(serve::sched::Policy::kEdf, 16, options);
  const auto now = std::chrono::steady_clock::now();
  std::vector<serve::sched::Scheduled<int>> shed;

  auto with_deadline = [&](int value, std::chrono::milliseconds offset,
                           api::Priority priority) {
    serve::sched::Scheduled<int> it = item(value, "default", priority);
    it.meta.deadline = now + offset;
    return it;
  };
  // Admission order is deliberately scrambled relative to deadline order.
  ASSERT_TRUE(sched->try_push(item(99), shed));  // no deadline: pops last
  ASSERT_TRUE(sched->try_push(
      with_deadline(2, 100ms, api::Priority::kInteractive), shed));
  ASSERT_TRUE(
      sched->try_push(with_deadline(0, 10ms, api::Priority::kBatch), shed));
  // Same 100ms bucket, lower priority, later admission: pops after 2.
  ASSERT_TRUE(
      sched->try_push(with_deadline(3, 100ms, api::Priority::kBatch), shed));
  ASSERT_TRUE(
      sched->try_push(with_deadline(1, 10ms, api::Priority::kBatch), shed));

  // 10ms bucket first (0 admitted before 1), then the 100ms bucket by
  // priority (interactive 2 before batch 3), then the deadline-free 99.
  EXPECT_EQ(drain_values(*sched), (std::vector<int>{0, 1, 2, 3, 99}));
}

TEST(QosSchedEdf, PropertyTwoHundredSeededDrawsRespectTheOrder) {
  // ~200 randomised items across 10 seeds: pop order must match a stable
  // sort by (deadline bucket, -priority rank, admission order) — the
  // documented EDF contract, recomputed here independently.
  const auto epoch = std::chrono::steady_clock::now();
  const auto window = 1ms;
  std::size_t draws = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> offset_ms(0, 50);
    std::uniform_int_distribution<int> priority_draw(0, 2);
    std::uniform_int_distribution<int> has_deadline(0, 3);

    serve::sched::Options options;
    options.edf_window = window;
    auto sched = make(serve::sched::Policy::kEdf, 64, options);
    std::vector<serve::sched::Scheduled<int>> shed;

    struct Expected {
      std::uint64_t bucket;
      int neg_rank;
      std::size_t admission;
      int value;
      bool operator<(const Expected& other) const {
        return std::tie(bucket, neg_rank, admission) <
               std::tie(other.bucket, other.neg_rank, other.admission);
      }
    };
    std::vector<Expected> expected;
    for (std::size_t i = 0; i < 20; ++i, ++draws) {
      const api::Priority priority = api::kAllPriorities[static_cast<
          std::size_t>(priority_draw(rng))];
      serve::sched::Scheduled<int> it =
          item(static_cast<int>(i), "default", priority);
      Expected record;
      record.bucket = std::numeric_limits<std::uint64_t>::max();
      if (has_deadline(rng) != 0) {  // ~3/4 of items carry a deadline
        const auto deadline =
            epoch + std::chrono::milliseconds(offset_ms(rng));
        it.meta.deadline = deadline;
        record.bucket = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                deadline.time_since_epoch())
                .count() /
            std::chrono::duration_cast<std::chrono::nanoseconds>(window)
                .count());
      }
      int rank = 1;
      if (priority == api::Priority::kBatch) rank = 0;
      if (priority == api::Priority::kInteractive) rank = 2;
      record.neg_rank = -rank;
      record.admission = i;
      record.value = static_cast<int>(i);
      expected.push_back(record);
      ASSERT_TRUE(sched->try_push(std::move(it), shed));
    }
    std::sort(expected.begin(), expected.end());
    std::vector<int> want;
    for (const Expected& record : expected) {
      want.push_back(record.value);
    }
    EXPECT_EQ(drain_values(*sched), want) << "seed " << seed;
  }
  EXPECT_EQ(draws, 200u);
}

// ---------------------------------------------------------------------------
// weighted fair queuing

TEST(QosSchedWfq, InterleavesTenantsByQuotaWeight) {
  serve::sched::Options options;
  options.quotas["heavy"] = {3.0, 0};
  options.quotas["light"] = {1.0, 0};
  auto sched = make(serve::sched::Policy::kWeightedFair, 64, options);
  std::vector<serve::sched::Scheduled<int>> shed;
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(sched->try_push(item(i, "heavy"), shed));
    ASSERT_TRUE(sched->try_push(item(100 + i, "light"), shed));
  }
  // In any 16-pop prefix the 3x-weighted tenant gets ~3x the service.
  std::size_t heavy = 0;
  std::size_t light = 0;
  for (int i = 0; i < 16; ++i) {
    auto popped = sched->try_pop();
    ASSERT_TRUE(popped.has_value());
    (popped->value < 100 ? heavy : light) += 1;
  }
  EXPECT_GE(heavy, 2 * light) << "heavy=" << heavy << " light=" << light;
  EXPECT_GE(light, 3u);  // ...but the light tenant is never starved
}

TEST(QosSchedWfq, FullQueueShedsTheMostOverQuotaTenant) {
  // A lone tenant owns the whole proportional share, so over-quota needs
  // company: hog 7 of 8 slots vs compliant 1 — equal weights make each
  // share ~5, so the hog is 1.4x over and the compliant tenant far under.
  auto sched = make(serve::sched::Policy::kWeightedFair, 8);
  std::vector<serve::sched::Scheduled<int>> shed;
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(sched->try_push(item(i, "hog"), shed));
  }
  ASSERT_TRUE(sched->try_push(item(100, "compliant"), shed));
  ASSERT_TRUE(shed.empty());
  // The compliant tenant arrives at the full queue: the hog sheds one
  // queued item; the newcomer is admitted.
  EXPECT_TRUE(sched->try_push(item(101, "compliant"), shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed.front().meta.tenant, "hog");
  EXPECT_EQ(sched->queued_for("hog"), 6u);
  EXPECT_EQ(sched->queued_for("compliant"), 2u);
  const serve::sched::Audit audit = sched->audit();
  EXPECT_EQ(audit.sheds, 1u);
  EXPECT_EQ(audit.unfair_sheds, 0u);
}

TEST(QosSchedWfq, EvictsTheVictimsNewestLowestPriorityItem) {
  auto sched = make(serve::sched::Policy::kWeightedFair, 8);
  std::vector<serve::sched::Scheduled<int>> shed;
  const api::Priority hog_priorities[] = {
      api::Priority::kInteractive, api::Priority::kBatch,
      api::Priority::kInteractive, api::Priority::kBatch,
      api::Priority::kInteractive, api::Priority::kInteractive};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(sched->try_push(item(i, "hog", hog_priorities[i]), shed));
  }
  ASSERT_TRUE(sched->try_push(item(100, "compliant"), shed));
  ASSERT_TRUE(sched->try_push(item(101, "compliant"), shed));
  EXPECT_TRUE(sched->try_push(item(102, "compliant"), shed));
  ASSERT_EQ(shed.size(), 1u);
  // The hog's newest batch-priority item — never an interactive one, and
  // not the older batch item admitted first.
  EXPECT_EQ(shed.front().value, 3);
  EXPECT_EQ(shed.front().meta.priority, api::Priority::kBatch);
}

TEST(QosSchedWfq, HogPushingIntoItsOwnFullQueueIsRefusedNotChurned) {
  serve::sched::Options options;
  options.quotas["hog"] = {1.0, 2};  // far over its hard cap by queue-full
  auto sched = make(serve::sched::Policy::kWeightedFair, 4, options);
  std::vector<serve::sched::Scheduled<int>> shed;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sched->try_push(item(i, "hog"), shed));
  }
  // The hog is the most over-share tenant; evicting its own queued item
  // for its own newcomer would churn, so the push is refused instead.
  EXPECT_FALSE(sched->try_push(item(4, "hog"), shed));
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(sched->queued_for("hog"), 4u);
  const serve::sched::Audit audit = sched->audit();
  EXPECT_EQ(audit.sheds, 1u);
  EXPECT_EQ(audit.unfair_sheds, 0u);  // the hog shed itself: always fair
}

TEST(QosSchedWfq, AllCompliantTrafficRefusesTheNewcomerFairly) {
  auto sched = make(serve::sched::Policy::kWeightedFair, 4);
  std::vector<serve::sched::Scheduled<int>> shed;
  ASSERT_TRUE(sched->try_push(item(0, "a"), shed));
  ASSERT_TRUE(sched->try_push(item(1, "a"), shed));
  ASSERT_TRUE(sched->try_push(item(2, "b"), shed));
  ASSERT_TRUE(sched->try_push(item(3, "b"), shed));
  // Everyone sits within an equal-weight share of 4/2(+1): nobody is
  // over-quota, so the only capacity-respecting move is refusing the
  // newcomer — and the audit must classify that refusal as fair.
  EXPECT_FALSE(sched->try_push(item(4, "c"), shed));
  EXPECT_TRUE(shed.empty());
  const serve::sched::Audit audit = sched->audit();
  EXPECT_EQ(audit.sheds, 1u);
  EXPECT_EQ(audit.unfair_sheds, 0u);
}

TEST(QosSchedWfq, HardTenantCapBeatsProportionalShare) {
  serve::sched::Options options;
  options.quotas["capped"] = {1.0, 2};  // hard cap: at most 2 queued
  auto sched = make(serve::sched::Policy::kWeightedFair, 6, options);
  std::vector<serve::sched::Scheduled<int>> shed;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sched->try_push(item(i, "capped"), shed));
    ASSERT_TRUE(sched->try_push(item(100 + i, "other"), shed));
  }
  // Full queue, capped tenant at 3 > its hard cap of 2: it is the victim
  // even though "other" queues just as much.
  EXPECT_TRUE(sched->try_push(item(200, "third"), shed));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed.front().meta.tenant, "capped");
  EXPECT_EQ(sched->audit().unfair_sheds, 0u);
}

// ---------------------------------------------------------------------------
// tiered result cache

std::shared_ptr<const api::SolveResult> tiny_result(double fill) {
  auto terms = std::make_shared<advect::SourceTerms>(grid::GridDims{4, 4, 4});
  terms->su.fill(fill);
  terms->sv.fill(fill);
  terms->sw.fill(fill);
  auto result = std::make_shared<api::SolveResult>();
  result->terms = std::move(terms);
  return result;
}

TEST(QosTieredCache, WarmHitPromotesBackToHot) {
  serve::TieredCacheConfig config;
  config.hot_entries = 2;
  config.warm_entries = 2;
  serve::TieredResultCache cache(config);
  ASSERT_TRUE(cache.put(1, tiny_result(1.0)));
  ASSERT_TRUE(cache.put(2, tiny_result(2.0)));
  ASSERT_TRUE(cache.put(3, tiny_result(3.0)));  // demotes key 1 to warm

  serve::TieredCacheStats stats = cache.stats();
  EXPECT_EQ(stats.demotions, 1u);
  EXPECT_EQ(stats.hot_count, 2u);
  EXPECT_EQ(stats.warm_count, 1u);

  const auto hit = cache.get(1);  // warm hit: promoted back to hot
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->terms->su.at(1, 1, 1), 1.0);
  stats = cache.stats();
  EXPECT_EQ(stats.warm_hits, 1u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(cache.stats().hot_hits + cache.stats().warm_hits, 1u);
  const auto hot_again = cache.get(1);
  ASSERT_NE(hot_again, nullptr);
  EXPECT_EQ(cache.stats().hot_hits, 1u);
}

TEST(QosTieredCache, EvictsLeastRecentlyUsedWhenEntryCapped) {
  serve::TieredCacheConfig config;
  config.hot_entries = 1;
  config.warm_entries = 1;
  serve::TieredCacheStats stats;
  serve::TieredResultCache cache(config);
  ASSERT_TRUE(cache.put(1, tiny_result(1.0)));
  ASSERT_TRUE(cache.put(2, tiny_result(2.0)));  // 1 demoted to warm
  ASSERT_TRUE(cache.put(3, tiny_result(3.0)));  // 2 demoted, 1 evicted
  stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(cache.get(1), nullptr);  // the LRU entry is gone
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(QosTieredCache, ByteCapIsAHardInvariant) {
  const auto probe = tiny_result(0.0);
  const std::size_t each = serve::TieredResultCache::result_bytes(*probe);
  serve::TieredCacheConfig config;
  config.hot_entries = 64;
  config.warm_entries = 64;
  config.max_bytes = 3 * each + each / 2;  // room for three, not four
  serve::TieredResultCache cache(config);
  for (int key = 0; key < 12; ++key) {
    ASSERT_TRUE(cache.put(static_cast<std::uint64_t>(key),
                          tiny_result(static_cast<double>(key))));
    const serve::TieredCacheStats stats = cache.stats();
    EXPECT_LE(stats.bytes, config.max_bytes);
    EXPECT_LE(stats.peak_bytes, config.max_bytes);
  }
  const serve::TieredCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hot_count + stats.warm_count, 3u);
  EXPECT_GE(stats.evictions, 9u);
  EXPECT_EQ(stats.byte_cap, config.max_bytes);
}

TEST(QosTieredCache, OversizeResultIsRefusedOutright) {
  const auto big = tiny_result(1.0);
  serve::TieredCacheConfig config;
  config.max_bytes = serve::TieredResultCache::result_bytes(*big) - 1;
  serve::TieredResultCache cache(config);
  EXPECT_FALSE(cache.put(7, big));
  const serve::TieredCacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected_oversize, 1u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(cache.get(7), nullptr);
}

TEST(QosTieredCache, DuplicatePutIsANoOp) {
  serve::TieredResultCache cache;
  ASSERT_TRUE(cache.put(5, tiny_result(5.0)));
  EXPECT_TRUE(cache.put(5, tiny_result(6.0)));  // already resident: kept
  const serve::TieredCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  const auto hit = cache.get(5);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->terms->su.at(1, 1, 1), 5.0);  // first write wins
}

// ---------------------------------------------------------------------------
// fingerprint memo bound

TEST(QosFingerprintCache, StaysBoundedUnderManyLivePayloads) {
  serve::FingerprintCache memo(8);
  EXPECT_EQ(memo.capacity(), 8u);
  serve::TraceSpec spec;
  spec.requests = 32;
  spec.repeat_fraction = 0.0;  // 32 distinct live payloads
  spec.shapes = {{8, 8, 8}};
  const std::vector<api::SolveRequest> requests = serve::make_trace(spec);
  std::vector<std::uint64_t> fingerprints;
  for (const api::SolveRequest& request : requests) {
    fingerprints.push_back(memo.fingerprint(request));
    EXPECT_LE(memo.size(), memo.capacity());
  }
  // Eviction must not change the answer: re-fingerprinting an evicted
  // request recomputes the same value.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(memo.fingerprint(requests[i]), fingerprints[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// traffic generator

TEST(QosTraffic, DeterministicInSeedAndMonotoneInTime) {
  serve::TrafficSpec spec;
  spec.requests = 256;
  spec.arrival_rate_hz = 10000.0;
  spec.catalogue = 16;
  spec.trace.shapes = {{8, 8, 8}};
  spec.tenants = serve::default_tenant_mix(3);
  const auto a = serve::make_traffic(spec);
  const auto b = serve::make_traffic(spec);
  ASSERT_EQ(a.size(), spec.requests);
  ASSERT_EQ(b.size(), spec.requests);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s) << i;
    EXPECT_EQ(a[i].request.tenant, b[i].request.tenant) << i;
    EXPECT_EQ(a[i].request.priority, b[i].request.priority) << i;
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s) << i;
    }
  }
  spec.trace.seed += 1;
  const auto c = serve::make_traffic(spec);
  std::size_t different = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    different += a[i].arrival_s != c[i].arrival_s ? 1 : 0;
  }
  EXPECT_GT(different, a.size() / 2);  // a new seed is a new storm
}

TEST(QosTraffic, MeanArrivalRateTracksTheSpec) {
  serve::TrafficSpec spec;
  spec.requests = 2000;
  spec.arrival_rate_hz = 5000.0;
  spec.catalogue = 8;
  spec.trace.shapes = {{8, 8, 8}};
  const auto traffic = serve::make_traffic(spec);
  const double span = traffic.back().arrival_s;
  const double measured = static_cast<double>(spec.requests) / span;
  EXPECT_GT(measured, spec.arrival_rate_hz * 0.8);
  EXPECT_LT(measured, spec.arrival_rate_hz * 1.25);
}

TEST(QosTraffic, ZipfConcentratesLoadOnTheCatalogueHead) {
  serve::TrafficSpec spec;
  spec.requests = 1024;
  spec.catalogue = 32;
  spec.zipf_s = 1.2;
  spec.trace.shapes = {{8, 8, 8}};
  const auto traffic = serve::make_traffic(spec);
  std::map<const void*, std::size_t> popularity;
  for (const auto& timed : traffic) {
    popularity[timed.request.state.get()] += 1;
  }
  EXPECT_LE(popularity.size(), spec.catalogue);
  EXPECT_GT(popularity.size(), 4u);  // the tail exists...
  std::size_t top = 0;
  for (const auto& [state, count] : popularity) {
    top = std::max(top, count);
  }
  // ...but the head dominates: far above the uniform 1/catalogue share.
  EXPECT_GT(top, 3 * spec.requests / spec.catalogue);
}

TEST(QosTraffic, TenantMixFollowsWeights) {
  serve::TrafficSpec spec;
  spec.requests = 1200;
  spec.catalogue = 8;
  spec.trace.shapes = {{8, 8, 8}};
  spec.tenants = {{"light", 1.0, api::Priority::kInteractive},
                  {"heavy", 3.0, api::Priority::kBatch}};
  const auto traffic = serve::make_traffic(spec);
  std::map<std::string, std::size_t> counts;
  for (const auto& timed : traffic) {
    counts[timed.request.tenant] += 1;
    if (timed.request.tenant == "heavy") {
      EXPECT_EQ(timed.request.priority, api::Priority::kBatch);
    }
  }
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_GT(counts["heavy"], 2 * counts["light"]);
  EXPECT_GT(counts["light"], spec.requests / 10);
}

TEST(QosTraffic, SpecRoundTripsThroughItsString) {
  serve::TrafficSpec spec;
  spec.requests = 4242;
  spec.arrival_rate_hz = 1234.5;
  spec.diurnal = true;
  spec.diurnal_amplitude = 0.25;
  spec.diurnal_period_s = 2.5;
  spec.zipf_s = 0.9;
  spec.catalogue = 99;
  spec.tenants = serve::default_tenant_mix(4);
  spec.trace.seed = 77;
  spec.trace.timeout = 250ms;
  const std::string text = serve::to_string(spec);
  const auto parsed = serve::parse_traffic(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(serve::to_string(*parsed), text);  // canonical fixed point
  EXPECT_EQ(parsed->requests, spec.requests);
  EXPECT_DOUBLE_EQ(parsed->arrival_rate_hz, spec.arrival_rate_hz);
  EXPECT_EQ(parsed->diurnal, spec.diurnal);
  EXPECT_EQ(parsed->catalogue, spec.catalogue);
  EXPECT_EQ(parsed->tenants.size(), spec.tenants.size());
  EXPECT_EQ(parsed->trace.seed, spec.trace.seed);

  EXPECT_FALSE(serve::parse_traffic("requests=10,bogus=1").has_value());
  EXPECT_FALSE(serve::parse_traffic("requests=abc").has_value());
  EXPECT_TRUE(serve::parse_traffic("").has_value());  // all defaults
}

// ---------------------------------------------------------------------------
// service-level differential battery

/// A small mixed trace (shapes x kernels x backends, half the requests
/// re-submitting hot payloads) — the replay every policy must serve with
/// results bit-identical to direct solves.
std::vector<api::SolveRequest> referee_trace() {
  serve::TraceSpec spec;
  spec.requests = 24;
  spec.shapes = {{12, 12, 8}, {16, 16, 8}};
  spec.kernels = {api::Kernel::kAdvectPw, api::Kernel::kDiffusion};
  spec.seed = 11;
  return serve::make_trace(spec);
}

void expect_matches_direct(const api::SolveRequest& request,
                           const api::SolveResult& served,
                           std::size_t index) {
  ASSERT_TRUE(served.ok()) << index << ": " << served.message;
  const api::SolveResult direct =
      api::Solver(request.options).solve(request);
  ASSERT_TRUE(direct.ok()) << index << ": " << direct.message;
  EXPECT_TRUE(grid::compare_interior(direct.terms->su, served.terms->su)
                  .bit_equal())
      << index;
  EXPECT_TRUE(grid::compare_interior(direct.terms->sv, served.terms->sv)
                  .bit_equal())
      << index;
  EXPECT_TRUE(grid::compare_interior(direct.terms->sw, served.terms->sw)
                  .bit_equal())
      << index;
}

TEST(QosDifferential, FifoServiceMatchesDirectSolvesOnAReplayedTrace) {
  // The FIFO scheduler is the bit-compatible referee: a service running it
  // must serve the whole trace request-for-request identical to direct
  // Solver calls, with the pre-refactor counter contract intact.
  const std::vector<api::SolveRequest> trace = referee_trace();
  serve::ServiceConfig config;
  config.scheduler = serve::sched::Policy::kFifo;
  serve::SolveService service(config);
  std::vector<api::SolveFuture> futures =
      service.submit_all(std::vector<api::SolveRequest>(trace));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    expect_matches_direct(trace[i], futures[i].wait(), i);
  }
  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.scheduler, serve::sched::Policy::kFifo);
  EXPECT_EQ(report.submitted, trace.size());
  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(report.rejected_backpressure, 0u);
  EXPECT_EQ(report.shed_quota, 0u);
  EXPECT_EQ(report.sheds_unfair, 0u);
  // Every completion is either a computed solve or a cache/coalesce hit.
  EXPECT_EQ(report.computed + report.result_cache_hits, report.completed);

  // Replaying the identical trace a second time must serve entirely from
  // the tiered result cache: zero new computes, every result flagged.
  service.drain();
  const std::uint64_t computed_once = report.computed;
  std::vector<api::SolveFuture> replay =
      service.submit_all(std::vector<api::SolveRequest>(trace));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const api::SolveResult& served = replay[i].wait();
    EXPECT_TRUE(served.cached) << i;
    expect_matches_direct(trace[i], served, i);
  }
  EXPECT_EQ(service.report().computed, computed_once);
}

TEST(QosDifferential, SchedulingPolicyNeverChangesResults) {
  // EDF and WFQ reorder *when* requests run, never *what* they compute:
  // every policy serves the same trace bit-identical to direct solves.
  std::vector<api::SolveRequest> trace = referee_trace();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].tenant = "tenant-" + std::to_string(i % 3);
    trace[i].priority = api::kAllPriorities[i % api::kAllPriorities.size()];
    trace[i].timeout = 30s;  // EDF deadlines, far enough to never expire
  }
  for (const serve::sched::Policy policy :
       {serve::sched::Policy::kEdf, serve::sched::Policy::kWeightedFair}) {
    serve::ServiceConfig config;
    config.scheduler = policy;
    serve::SolveService service(config);
    std::vector<api::SolveFuture> futures =
        service.submit_all(std::vector<api::SolveRequest>(trace));
    for (std::size_t i = 0; i < trace.size(); ++i) {
      expect_matches_direct(trace[i], futures[i].wait(), i);
    }
    const serve::ServiceReport report = service.report();
    EXPECT_EQ(report.scheduler, policy);
    EXPECT_EQ(report.completed, trace.size());
    EXPECT_EQ(report.sheds_unfair, 0u);
  }
}

// ---------------------------------------------------------------------------
// service-level tenant accounting and the stable report schema

TEST(QosService, ReportCarriesSortedTenantRowsAndStableJson) {
  const grid::GridDims dims{12, 12, 8};
  auto state = std::make_shared<grid::WindState>(dims);
  grid::init_random(*state, 21);
  auto coefficients = std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(
          grid::Geometry::uniform(dims, 100.0, 100.0, 50.0)));

  serve::ServiceConfig config;
  config.scheduler = serve::sched::Policy::kWeightedFair;
  serve::SolveService service(config);
  std::vector<api::SolveFuture> futures;
  for (const char* tenant : {"zeta", "alpha", "zeta", "", "alpha", "zeta"}) {
    api::SolverOptions options;
    options.kernel.chunk_y = 4;
    api::SolveRequest request = api::make_request(state, coefficients,
                                                  options);
    request.tenant = tenant;
    futures.push_back(service.submit(std::move(request)));
  }
  for (api::SolveFuture& future : futures) {
    EXPECT_TRUE(future.wait().ok());
  }
  const serve::ServiceReport report = service.report();
  ASSERT_EQ(report.tenants.size(), 3u);  // "" billed as "default"
  EXPECT_EQ(report.tenants[0].tenant, "alpha");
  EXPECT_EQ(report.tenants[1].tenant, "default");
  EXPECT_EQ(report.tenants[2].tenant, "zeta");
  EXPECT_EQ(report.tenants[0].submitted, 2u);
  EXPECT_EQ(report.tenants[1].submitted, 1u);
  EXPECT_EQ(report.tenants[2].submitted, 3u);
  for (const serve::TenantReportRow& row : report.tenants) {
    EXPECT_EQ(row.admitted, row.submitted);
    EXPECT_EQ(row.shed, 0u);
    EXPECT_EQ(row.completed, row.submitted);
    EXPECT_GT(row.p99_latency_s, 0.0);
  }

  // The stable schema: top-level sections in order, policy spelled out,
  // one tenant object per row. Downstream dashboards key on these.
  const std::string json = serve::to_json(report);
  const std::size_t service_at = json.find("\"service\":{");
  const std::size_t scheduler_at = json.find("\"scheduler\":{");
  const std::size_t cache_at = json.find("\"cache\":{");
  const std::size_t tenants_at = json.find("\"tenants\":[");
  const std::size_t metrics_at = json.find("\"metrics\":");
  ASSERT_NE(service_at, std::string::npos) << json.substr(0, 200);
  ASSERT_NE(scheduler_at, std::string::npos);
  ASSERT_NE(cache_at, std::string::npos);
  ASSERT_NE(tenants_at, std::string::npos);
  ASSERT_NE(metrics_at, std::string::npos);
  EXPECT_LT(service_at, scheduler_at);
  EXPECT_LT(scheduler_at, cache_at);
  EXPECT_LT(cache_at, tenants_at);
  EXPECT_LT(tenants_at, metrics_at);
  EXPECT_NE(json.find("\"policy\":\"wfq\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"unfair_sheds\":0"), std::string::npos);
}

/// About 1M cells through the single-threaded CPU baseline: a solve long
/// enough to pin a lone worker while a test fills the queue behind it.
api::SolveRequest pinning_request() {
  const grid::GridDims big{128, 128, 64};
  auto state = std::make_shared<grid::WindState>(big);
  grid::init_random(*state, 3);
  auto coefficients = std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(
          grid::Geometry::uniform(big, 100.0, 100.0, 50.0)));
  api::SolverOptions options;
  options.backend = api::CpuBaselineOptions{.threads = 1};
  options.kernel.chunk_y = 8;
  api::SolveRequest pin = api::make_request(state, coefficients, options);
  pin.tenant = "pinner";
  return pin;
}

TEST(QosService, QuotaShedCompletesTheVictimTyped) {
  serve::ServiceConfig config;
  config.scheduler = serve::sched::Policy::kWeightedFair;
  config.queue_capacity = 4;
  config.workers_per_backend = 1;
  config.max_batch = 1;  // in-flight cap 1: the queue is the only buffer
  config.block_when_full = false;
  config.result_cache = false;
  // The hog's hard cap makes it over-quota the moment the queue fills —
  // with proportional shares a tenant queueing alone owns the whole queue.
  config.tenant_quotas["hog"] = {1.0, 2};
  serve::SolveService service(config);

  // Pin the lone worker, then fill the queue with one hog's requests.
  api::SolveFuture slow = service.submit(pinning_request());
  while (service.metrics().histogram("serve.batch.size").count < 1) {
    std::this_thread::sleep_for(1ms);
  }

  const grid::GridDims dims{16, 16, 16};
  auto state = std::make_shared<grid::WindState>(dims);
  grid::init_random(*state, 9);
  auto coefficients = std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(
          grid::Geometry::uniform(dims, 100.0, 100.0, 50.0)));
  const auto tenant_request = [&](const char* tenant) {
    api::SolverOptions options;
    options.kernel.chunk_y = 8;
    api::SolveRequest request = api::make_request(state, coefficients,
                                                  options);
    request.tenant = tenant;
    return request;
  };
  std::vector<api::SolveFuture> hog;
  for (int i = 0; i < 4; ++i) {
    hog.push_back(service.submit(tenant_request("hog")));
  }
  // The compliant tenant's arrival sheds one queued hog request — typed,
  // named, and billed to the hog; the newcomer is admitted and served.
  api::SolveFuture compliant = service.submit(tenant_request("compliant"));
  std::size_t shed_count = 0;
  for (api::SolveFuture& future : hog) {
    const api::SolveResult& result = future.wait();
    if (!result.ok()) {
      EXPECT_EQ(result.error, api::SolveError::kQueueFull);
      EXPECT_NE(result.message.find("shed by quota"), std::string::npos)
          << result.message;
      ++shed_count;
    }
  }
  EXPECT_EQ(shed_count, 1u);
  EXPECT_TRUE(compliant.wait().ok());
  EXPECT_TRUE(slow.wait().ok());
  service.drain();
  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.shed_quota, 1u);
  EXPECT_EQ(report.sheds_unfair, 0u);
  bool saw_hog_row = false;
  for (const serve::TenantReportRow& row : report.tenants) {
    if (row.tenant == "hog") {
      saw_hog_row = true;
      EXPECT_EQ(row.shed, 1u);
      EXPECT_EQ(row.submitted, 4u);
    }
  }
  EXPECT_TRUE(saw_hog_row);
}

// ---------------------------------------------------------------------------
// sharded serving: the same scheduler machinery in front of a ShardedSolver

serve::ServiceConfig sharded_wfq_config(std::size_t devices) {
  serve::ServiceConfig config;
  config.shard.emplace();
  config.shard->devices = devices;
  config.scheduler = serve::sched::Policy::kWeightedFair;
  return config;
}

TEST(QosShard, SubmitAllRoutesThroughTheSchedulerBitExact) {
  serve::ServiceConfig config = sharded_wfq_config(2);
  config.queue_capacity = 16;
  serve::SolveService sharded(config);
  EXPECT_EQ(sharded.scheduler().policy(),
            serve::sched::Policy::kWeightedFair);

  std::vector<api::SolveRequest> trace = referee_trace();
  trace.resize(8);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].tenant = i % 2 == 0 ? "even" : "odd";
  }
  std::vector<api::SolveFuture> futures =
      sharded.submit_all(std::vector<api::SolveRequest>(trace));
  ASSERT_EQ(futures.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    expect_matches_direct(trace[i], futures[i].wait(), i);
  }
  const serve::ServiceReport report = sharded.report();
  EXPECT_EQ(report.submitted, trace.size());
  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(report.shed_quota, 0u);
  EXPECT_EQ(report.sheds_unfair, 0u);
  EXPECT_EQ(sharded.sharded_solver()->dead_devices(), 0u);
}

TEST(QosShard, QuotaShedsSurfaceAsTypedQueueFull) {
  serve::ServiceConfig config = sharded_wfq_config(2);
  config.queue_capacity = 2;
  config.workers_per_backend = 1;
  config.max_batch = 1;  // in-flight cap 1: the queue is the only buffer
  config.result_cache = false;
  config.tenant_quotas["hog"] = {1.0, 1};  // hard cap: one queued at a time
  serve::SolveService sharded(config);

  // Pin the lone worker on a long sharded solve, so the batch below queues.
  api::SolveFuture slow = sharded.submit(pinning_request());
  while (sharded.metrics().histogram("serve.batch.size").count < 1) {
    std::this_thread::sleep_for(1ms);
  }

  std::vector<api::SolveRequest> batch = referee_trace();
  batch.resize(3);
  batch[0].tenant = "hog";
  batch[1].tenant = "hog";
  batch[2].tenant = "compliant";
  std::vector<api::SolveFuture> futures = sharded.submit_all(std::move(batch));
  ASSERT_EQ(futures.size(), 3u);
  // The compliant arrival at the full 2-slot queue evicts the hog's newest
  // queued request (the hog sits above its hard cap of 1).
  EXPECT_TRUE(futures[0].wait().ok()) << futures[0].result().message;
  EXPECT_EQ(futures[1].wait().error, api::SolveError::kQueueFull);
  EXPECT_NE(futures[1].result().message.find("shed by quota"),
            std::string::npos);
  EXPECT_TRUE(futures[2].wait().ok()) << futures[2].result().message;
  EXPECT_TRUE(slow.wait().ok());
  const serve::ServiceReport report = sharded.report();
  EXPECT_EQ(report.shed_quota, 1u);
  EXPECT_EQ(report.sheds_unfair, 0u);
}

}  // namespace
