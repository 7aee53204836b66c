// Stress and contract tests of the PR 6 lock-free stream fabric: the SPSC
// ring behind pw::dataflow::Stream, the TryPop end-of-stream contract,
// batched/scalar interleaving, close-while-blocked under concurrency,
// placement, and a differential check against the retained MutexStream
// reference. Built into the TSan stage of ci.sh (label: streams) — every
// threaded test here must be TSan-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "pw/dataflow/streams.hpp"
#include "pw/dataflow/threaded.hpp"
#include "pw/obs/metrics.hpp"

namespace pw::dataflow {
namespace {

// --- ring fundamentals -------------------------------------------------

TEST(SpscRing, WraparoundAtTinyCapacities) {
  for (std::size_t capacity : {1u, 2u, 3u}) {
    Stream<int> s({.capacity = capacity});
    // Push/pop far more elements than slots so the 64-bit cursors wrap the
    // mask many times; order must survive.
    int next_out = 0;
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(s.try_push(i)) << "capacity " << capacity;
      if (s.size() == capacity) {
        auto v = s.try_pop();
        ASSERT_TRUE(v.has_value());
        ASSERT_EQ(*v, next_out++) << "capacity " << capacity;
      }
    }
    while (auto v = s.try_pop()) {
      ASSERT_EQ(*v, next_out++);
    }
    ASSERT_EQ(next_out, 1000);
  }
}

TEST(SpscRing, ExactCapacityDespitePow2SlotRounding) {
  Stream<int> s({.capacity = 3});  // slots round to 4; capacity must stay 3
  EXPECT_TRUE(s.try_push(1));
  EXPECT_TRUE(s.try_push(2));
  EXPECT_TRUE(s.try_push(3));
  EXPECT_FALSE(s.try_push(4));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.capacity(), 3u);
}

// Element lifetime: a stream destroyed while still holding elements (and a
// ring whose slots wrapped many times) must destroy exactly the elements
// it still owns — no leaks, no double-destruction. Counted instances give
// the evidence.
struct Counted {
  static std::atomic<int> live;
  int value = 0;
  Counted() { live.fetch_add(1, std::memory_order_relaxed); }
  explicit Counted(int v) : value(v) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  Counted(const Counted& other) : value(other.value) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  Counted(Counted&& other) noexcept : value(other.value) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) = default;
  ~Counted() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> Counted::live{0};

TEST(SpscRing, NonTrivialElementLifetime) {
  Counted::live.store(0);
  {
    Stream<Counted> s({.capacity = 3});
    for (int round = 0; round < 10; ++round) {
      ASSERT_TRUE(s.push(Counted(round)));
      if (round % 2 == 0) {
        auto v = s.pop();
        ASSERT_TRUE(v.has_value());
      }
      while (s.size() == 3) {
        s.pop();
      }
    }
    EXPECT_GT(s.size(), 0u);  // destructor must reap the remainder
  }
  EXPECT_EQ(Counted::live.load(), 0);
}

// --- TryPop / exhausted contract ---------------------------------------

TEST(StreamContract, TryPopDistinguishesEmptyFromClosed) {
  Stream<int> s({.capacity = 4});
  int out = 0;
  EXPECT_EQ(s.try_pop(out), TryPop::kEmpty);  // open + empty: keep polling
  ASSERT_TRUE(s.push(42));
  EXPECT_EQ(s.try_pop(out), TryPop::kValue);
  EXPECT_EQ(out, 42);
  ASSERT_TRUE(s.push(43));
  s.close();
  EXPECT_EQ(s.try_pop(out), TryPop::kValue);  // drain continues past close
  EXPECT_EQ(out, 43);
  EXPECT_EQ(s.try_pop(out), TryPop::kClosed);  // end-of-stream, stop
}

TEST(StreamContract, ExhaustedIsObservableWithoutPopping) {
  Stream<int> s({.capacity = 2});
  EXPECT_FALSE(s.exhausted());
  ASSERT_TRUE(s.push(1));
  s.close();
  EXPECT_FALSE(s.exhausted());  // closed but not drained
  EXPECT_EQ(*s.try_pop(), 1);
  EXPECT_TRUE(s.exhausted());
}

// A non-blocking poller terminates on a dead stream — the loop the old
// optional-only try_pop() could not write correctly.
TEST(StreamContract, PollLoopTerminatesViaTryPopStatus) {
  Stream<int> s({.capacity = 8});
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(s.push(i));
    }
    s.close();
  });
  long long sum = 0;
  bool done = false;
  while (!done) {
    int v = 0;
    switch (s.try_pop(v)) {
      case TryPop::kValue:
        sum += v;
        break;
      case TryPop::kEmpty:
        std::this_thread::yield();
        break;
      case TryPop::kClosed:
        done = true;
        break;
    }
  }
  producer.join();
  EXPECT_EQ(sum, 100LL * 99 / 2);
}

// --- batched + scalar interleave ---------------------------------------

TEST(StreamBatch, BatchedAndScalarInterleaveSingleThread) {
  Stream<int> s({.capacity = 8});
  int batch[3] = {1, 2, 3};
  EXPECT_EQ(s.push_n(batch, 3), 3u);
  EXPECT_TRUE(s.push(4));
  int batch2[2] = {5, 6};
  EXPECT_EQ(s.push_n(batch2, 2), 2u);

  int out2[2] = {};
  EXPECT_EQ(s.pop_n(out2, 2), 2u);
  EXPECT_EQ(out2[0], 1);
  EXPECT_EQ(out2[1], 2);
  EXPECT_EQ(*s.pop(), 3);
  int out3[3] = {};
  EXPECT_EQ(s.pop_n(out3, 3), 3u);
  EXPECT_EQ(out3[0], 4);
  EXPECT_EQ(out3[1], 5);
  EXPECT_EQ(out3[2], 6);
}

TEST(StreamBatch, PushNBlocksAcrossFullAndCompletes) {
  // Batch larger than capacity: push_n must deliver incrementally as the
  // consumer frees space, never deadlock, and preserve order.
  Stream<int> s({.capacity = 4});
  std::vector<int> batch(1000);
  std::iota(batch.begin(), batch.end(), 0);
  std::thread producer([&] {
    EXPECT_EQ(s.push_n(batch.data(), batch.size()), batch.size());
    s.close();
  });
  std::vector<int> got;
  while (auto v = s.pop()) {
    got.push_back(*v);
  }
  producer.join();
  ASSERT_EQ(got.size(), batch.size());
  EXPECT_EQ(got, batch);
}

TEST(StreamBatch, PopNReturnsShortCountAtEndOfStream) {
  Stream<int> s({.capacity = 8});
  ASSERT_TRUE(s.push(1));
  ASSERT_TRUE(s.push(2));
  s.close();
  int out[5] = {};
  EXPECT_EQ(s.pop_n(out, 5), 2u);  // closed + drained before the batch fills
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
}

TEST(StreamBatch, PopNDeliversPartialTailExactlyOnceWhenClosedMidPack) {
  // A producer wedges a width-16 pack on a tiny ring and close() cuts the
  // transfer short. The consumer's width-16 pop_n must hand back the
  // accepted partial tail exactly once — a second pop_n of the same width
  // returns 0, not a replay of the tail (the regression this guards).
  Stream<int> s({.capacity = 4});
  int pack[16];
  std::iota(std::begin(pack), std::end(pack), 100);
  std::atomic<std::size_t> accepted{SIZE_MAX};
  std::thread producer([&] { accepted = s.push_n(pack, 16); });
  while (s.size() < 4) {
    std::this_thread::yield();  // the pack is wedged mid-transfer
  }
  s.close();
  producer.join();
  const std::size_t n = accepted.load();
  ASSERT_NE(n, SIZE_MAX);
  ASSERT_LT(n, 16u);  // the close cut the pack short

  int out[16] = {};
  EXPECT_EQ(s.pop_n(out, 16), n);  // the whole partial tail, one delivery
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], pack[i]);
  }
  int again[16] = {};
  EXPECT_EQ(s.pop_n(again, 16), 0u);  // and never again
  EXPECT_TRUE(s.exhausted());
}

TEST(StreamBatch, PopNBlockedMidPackReturnsPrefixOnClose) {
  // The dual edge: the consumer is already inside a width-8 pop_n when
  // close() lands. It must come back with exactly the elements delivered
  // so far, and a follow-up pop_n must find end-of-stream, not data.
  Stream<int> s({.capacity = 8});
  int out[8] = {};
  std::atomic<std::size_t> got{SIZE_MAX};
  std::thread consumer([&] { got = s.pop_n(out, 8); });
  ASSERT_TRUE(s.push(7));
  ASSERT_TRUE(s.push(8));
  while (s.size() > 0) {
    std::this_thread::yield();  // consumer holds the prefix, still hungry
  }
  s.close();
  consumer.join();
  ASSERT_EQ(got.load(), 2u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 8);
  int again[8] = {};
  EXPECT_EQ(s.pop_n(again, 8), 0u);
  EXPECT_TRUE(s.exhausted());
}

TEST(StreamBatch, BatchedProducerScalarConsumerThreaded) {
  Stream<std::uint64_t> s({.capacity = 16, .name = "fabric.batch"});
  constexpr std::uint64_t kCount = 200000;
  std::thread producer([&] {
    std::uint64_t next = 0;
    std::uint64_t buffer[64];
    while (next < kCount) {
      std::size_t n = 0;
      while (n < 64 && next < kCount) {
        buffer[n++] = next++;
      }
      ASSERT_EQ(s.push_n(buffer, n), n);
    }
    s.close();
  });
  std::uint64_t expected = 0;
  while (auto v = s.pop()) {
    ASSERT_EQ(*v, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  EXPECT_EQ(s.stats().pushed, kCount);
  EXPECT_EQ(s.stats().popped, kCount);
}

// --- close-while-blocked under concurrency -----------------------------

TEST(StreamClose, CloseWhileProducerBlockedStress) {
  // Repeatedly park a producer on a full stream and close under it; the
  // producer must always come back with `false` and never throw or hang.
  for (int round = 0; round < 50; ++round) {
    Stream<int> s({.capacity = 1});
    ASSERT_TRUE(s.push(0));
    std::atomic<int> result{-1};
    std::thread producer([&] { result = s.push(1) ? 1 : 0; });
    if (round % 2 == 0) {
      std::this_thread::yield();  // vary how deep the producer gets
    }
    s.close();
    producer.join();
    // Either the close won (false) or the push squeaked in just before it
    // (true, accepted); both are linearizable outcomes — but it must have
    // finished, and accepted values must drain.
    ASSERT_NE(result.load(), -1);
    ASSERT_TRUE(s.pop().has_value());
    if (result.load() == 1) {
      ASSERT_TRUE(s.pop().has_value());
    }
    ASSERT_FALSE(s.pop().has_value());
  }
}

TEST(StreamClose, CloseWhileConsumerBlockedStress) {
  for (int round = 0; round < 50; ++round) {
    Stream<int> s({.capacity = 4});
    std::thread consumer([&] {
      // Blocks on the empty stream until close() ends it.
      EXPECT_FALSE(s.pop().has_value());
    });
    if (round % 2 == 0) {
      std::this_thread::yield();
    }
    s.close();
    consumer.join();
  }
}

TEST(StreamClose, CloseWhileBatchedProducerBlocked) {
  Stream<int> s({.capacity = 2});
  int batch[16] = {};
  std::atomic<std::size_t> accepted{SIZE_MAX};
  std::thread producer([&] { accepted = s.push_n(batch, 16); });
  while (s.size() < 2) {
    std::this_thread::yield();  // wait until the batch is wedged
  }
  s.close();
  producer.join();
  const std::size_t n = accepted.load();
  ASSERT_NE(n, SIZE_MAX);
  EXPECT_LT(n, 16u);  // the close cut the batch short
  // Exactly the accepted prefix drains.
  std::size_t drained = 0;
  while (s.pop().has_value()) {
    ++drained;
  }
  EXPECT_EQ(drained, n);
}

// --- SPSC threaded stress ----------------------------------------------

TEST(StreamStress, SpscHighVolumeTinyCapacity) {
  Stream<std::uint64_t> s({.capacity = 2, .name = "fabric.stress"});
  constexpr std::uint64_t kCount = 300000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      ASSERT_TRUE(s.push(i));
    }
    s.close();
  });
  std::uint64_t expected = 0;
  __uint128_t sum = 0;
  while (auto v = s.pop()) {
    ASSERT_EQ(*v, expected++);  // strict FIFO across every wraparound
    sum += *v;
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  EXPECT_EQ(static_cast<std::uint64_t>(sum), kCount * (kCount - 1) / 2);
}

// --- differential: lock-free fabric vs the mutex reference -------------

// The same randomly generated operation script applied to the new Stream
// and to the retained MutexStream must produce identical observable
// behaviour (deterministic single-threaded execution).
TEST(StreamDifferential, MatchesMutexReferenceOnRandomScript) {
  std::mt19937 rng(20210831u);  // cluster 2021 vintage
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t capacity = 1 + rng() % 6;
    Stream<int> fabric({.capacity = capacity});
    MutexStream<int> referee({.capacity = capacity});
    bool closed = false;
    for (int op = 0; op < 400; ++op) {
      switch (rng() % 5) {
        case 0:
        case 1: {  // try_push
          const int value = static_cast<int>(rng() % 1000);
          ASSERT_EQ(fabric.try_push(value), referee.try_push(value));
          break;
        }
        case 2:
        case 3: {  // try_pop
          ASSERT_EQ(fabric.try_pop(), referee.try_pop());
          break;
        }
        case 4: {  // occasionally close (once)
          if (!closed && rng() % 16 == 0) {
            fabric.close();
            referee.close();
            closed = true;
          }
          break;
        }
      }
      ASSERT_EQ(fabric.size(), referee.size());
      ASSERT_EQ(fabric.closed(), referee.closed());
    }
    // Drain both to the end and compare the tails.
    for (;;) {
      auto a = fabric.try_pop();
      auto b = referee.try_pop();
      ASSERT_EQ(a, b);
      if (!a.has_value()) {
        break;
      }
    }
  }
}

// --- stats + obs publication -------------------------------------------

TEST(StreamStats, CountersTrackTrafficAndPublish) {
  Stream<int> s({.capacity = 2, .name = "fabric.counters"});
  ASSERT_TRUE(s.push(1));
  ASSERT_TRUE(s.push(2));
  EXPECT_FALSE(s.try_push(3));  // full: rejected pushes are not counted
  EXPECT_EQ(*s.pop(), 1);
  EXPECT_EQ(*s.pop(), 2);
  const StreamStats stats = s.stats();
  EXPECT_EQ(stats.pushed, 2u);
  EXPECT_EQ(stats.popped, 2u);

  obs::MetricsRegistry registry;
  EXPECT_TRUE(s.publish(registry));
  EXPECT_EQ(registry.counter("dataflow.stream.fabric.counters.pushed"), 2u);
  EXPECT_EQ(registry.counter("dataflow.stream.fabric.counters.popped"), 2u);

  Stream<int> anonymous({.capacity = 2});
  EXPECT_FALSE(anonymous.publish(registry));  // nameless: nowhere to publish
}

// --- placement ----------------------------------------------------------

TEST(Placement, DescribeAndFactories) {
  EXPECT_EQ(PlacementSpec::unpinned().describe(), "unpinned");
  EXPECT_EQ(PlacementSpec::core(3).describe(), "core 3");
  EXPECT_FALSE(PlacementSpec::unpinned().pinned());
  EXPECT_TRUE(PlacementSpec::core(0).pinned());
  EXPECT_GE(placement_cores(), 1);
}

TEST(Placement, ApplyCorePinIsBestEffort) {
  // Core 0 always exists; the index wraps modulo the online core count so
  // any index is satisfiable — the Xilinx frontend's round-robin pins and
  // lint's placement.oversubscribed check both rely on the wrap.
  ThreadedPipeline pipeline;
  pipeline.add_stage("first", [] {}, PlacementSpec::core(0));
  pipeline.add_stage("wrapped", [] {},
                     PlacementSpec::core(placement_cores() + 5));
  pipeline.run();
  const auto& report = pipeline.placement_report();
  ASSERT_EQ(report.size(), 2u);
#if defined(__linux__)
  EXPECT_TRUE(report[0].applied);
  EXPECT_TRUE(report[1].applied);
#else
  EXPECT_FALSE(report[0].applied);
  EXPECT_FALSE(report[1].applied);
#endif
}

TEST(Placement, ThreadedPipelineRecordsPlacementReport) {
  Stream<int> link({.capacity = 4, .name = "fabric.placed"});
  ThreadedPipeline pipeline;
  pipeline.add_stage("produce", [&] {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(link.push(i));
    }
    link.close();
  }, PlacementSpec::core(0));
  pipeline.add_stage("consume", [&] {
    while (link.pop().has_value()) {
    }
  });
  pipeline.run();
  const auto& report = pipeline.placement_report();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].stage, "produce");
  EXPECT_EQ(report[0].requested, PlacementSpec::core(0));
#if defined(__linux__)
  EXPECT_TRUE(report[0].applied);
#endif
  EXPECT_EQ(report[1].requested, PlacementSpec::unpinned());
  EXPECT_TRUE(report[1].applied);  // unpinned is trivially satisfied
}

// --- fault attribution --------------------------------------------------

TEST(StreamFault, NamedStreamAttributesInjectedFaults) {
  fault::FaultPlan plan;
  fault::FaultRule rule;
  rule.site = "dataflow.stream.push";
  rule.kind = fault::FaultKind::kStreamClose;
  rule.probability = 1.0;
  rule.count = 1;
  plan.rules.push_back(rule);
  fault::FaultInjector injector(plan);

  Stream<int> s({.capacity = 4, .name = "fabric.attributed"});
  {
    fault::ScopedArm arm(injector);
    EXPECT_FALSE(s.push(1));  // injected close
  }
  const fault::FaultReport report = injector.report();
  EXPECT_EQ(report.by_site.at("dataflow.stream.push"), 1u);
  EXPECT_EQ(report.by_stream.at("fabric.attributed"), 1u);
  EXPECT_EQ(s.stats().faults, 1u);
}

// --- DataPack -----------------------------------------------------------

TEST(DataPack, WideWordsStreamLikeScalars) {
  Stream<FieldPack> s({.capacity = 4});
  FieldPack pack;
  for (std::size_t lane = 0; lane < FieldPack::kWidth; ++lane) {
    pack[lane] = static_cast<double>(lane);
  }
  ASSERT_TRUE(s.push(pack));
  const auto got = s.pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, pack);
  EXPECT_EQ(FieldPack::kWidth, 8u);
  EXPECT_EQ(sizeof(FieldPack), 64u);  // one cache line per element
}

}  // namespace
}  // namespace pw::dataflow
