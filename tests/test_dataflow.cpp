#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "pw/dataflow/engine.hpp"
#include "pw/dataflow/stage.hpp"
#include "pw/dataflow/streams.hpp"
#include "pw/dataflow/threaded.hpp"

namespace pw::dataflow {
namespace {

TEST(Stream, FifoOrderPreserved) {
  Stream<int> s({.capacity = 4});
  EXPECT_TRUE(s.push(1));
  EXPECT_TRUE(s.push(2));
  EXPECT_TRUE(s.push(3));
  EXPECT_EQ(*s.pop(), 1);
  EXPECT_EQ(*s.pop(), 2);
  EXPECT_EQ(*s.pop(), 3);
}

TEST(Stream, TryPushRespectsCapacity) {
  Stream<int> s({.capacity = 2});
  EXPECT_TRUE(s.try_push(1));
  EXPECT_TRUE(s.try_push(2));
  EXPECT_FALSE(s.try_push(3));
  EXPECT_EQ(*s.try_pop(), 1);
  EXPECT_TRUE(s.try_push(3));
}

TEST(Stream, PopAfterCloseDrainsThenEnds) {
  Stream<int> s({.capacity = 4});
  EXPECT_TRUE(s.push(7));
  s.close();
  EXPECT_EQ(*s.pop(), 7);
  EXPECT_FALSE(s.pop().has_value());
}

TEST(Stream, PushOnClosedReturnsFalse) {
  Stream<int> s({.capacity = 4});
  s.close();
  EXPECT_FALSE(s.push(1));
  EXPECT_FALSE(s.try_push(1));
  EXPECT_FALSE(s.pop().has_value());
}

// The close-while-blocked contract: a producer blocked in push() on a full
// stream and then woken by close() must get a clean `false` back — not an
// exception escaping its stage thread.
TEST(Stream, CloseWakesBlockedProducerCleanly) {
  Stream<int> s({.capacity = 1});
  EXPECT_TRUE(s.push(1));  // stream now full
  std::atomic<int> result{-1};
  std::thread producer([&] {
    // Blocks: the stream stays full until close() wakes us.
    result = s.push(2) ? 1 : 0;
  });
  // Give the producer time to park inside push().
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(result.load(), -1);
  s.close();
  producer.join();
  EXPECT_EQ(result.load(), 0);  // woken, value discarded, no throw
  // Values accepted before the close still drain.
  EXPECT_EQ(*s.pop(), 1);
  EXPECT_FALSE(s.pop().has_value());
}

// A whole pipeline shuts down cleanly when a consumer abandons its input:
// upstream stages get push() == false and terminate instead of throwing.
TEST(Stream, PipelineShutsDownWhenConsumerAbandons) {
  Stream<int> a_to_b({.capacity = 2});
  std::atomic<int> produced{0};
  ThreadedPipeline pipeline;
  pipeline.add_stage("produce", [&] {
    for (int i = 0; i < 100000; ++i) {
      if (!a_to_b.push(i)) {
        return;  // consumer gone; clean exit
      }
      ++produced;
    }
  });
  pipeline.add_stage("abandon", [&] {
    // Take a few values then walk away, closing the stream behind us.
    for (int i = 0; i < 3; ++i) {
      a_to_b.pop();
    }
    a_to_b.close();
  });
  EXPECT_NO_THROW(pipeline.run());
  EXPECT_LT(produced.load(), 100000);
}

TEST(Stream, ZeroCapacityRejected) {
  EXPECT_THROW(Stream<int>(StreamOptions{.capacity = 0}), std::invalid_argument);
}

TEST(Stream, ProducerConsumerThreaded) {
  Stream<int> s({.capacity = 8});
  constexpr int kCount = 10000;
  long long sum = 0;
  std::thread producer([&s] {
    for (int i = 0; i < kCount; ++i) {
      EXPECT_TRUE(s.push(i));
    }
    s.close();
  });
  std::thread consumer([&s, &sum] {
    while (auto v = s.pop()) {
      sum += *v;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(SimStream, BoundedPushPop) {
  SimStream<int> s({.capacity = 2});
  EXPECT_TRUE(s.push(1));
  EXPECT_TRUE(s.push(2));
  EXPECT_TRUE(s.full());
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.push(3));
  EXPECT_EQ(*s.pop(), 1);
  EXPECT_FALSE(s.full());
  EXPECT_EQ(s.size(), 1u);
}

TEST(SimStream, EosSemantics) {
  SimStream<int> s({.capacity = 2});
  s.push(5);
  s.set_eos();
  EXPECT_FALSE(s.finished());  // still holds data
  EXPECT_EQ(*s.pop(), 5);
  EXPECT_TRUE(s.finished());
}

// A stage producing `count` tokens into a SimStream.
class Producer final : public ICycleStage {
public:
  Producer(SimStream<int>& out, int count)
      : ICycleStage("producer"), out_(&out), remaining_(count) {}

protected:
  TickResult step() override {
    if (remaining_ == 0) {
      out_->set_eos();
      return TickResult::kDone;
    }
    if (out_->full()) {
      return TickResult::kStalled;
    }
    out_->push(remaining_--);
    return TickResult::kFired;
  }

private:
  SimStream<int>* out_;
  int remaining_;
};

class Consumer final : public ICycleStage {
public:
  Consumer(SimStream<int>& in, unsigned ii = 1)
      : ICycleStage("consumer", ii), in_(&in) {}

  int consumed() const { return consumed_; }

protected:
  TickResult step() override {
    if (in_->finished()) {
      return TickResult::kDone;
    }
    if (in_->empty()) {
      return TickResult::kStalled;
    }
    in_->pop();
    ++consumed_;
    return TickResult::kFired;
  }

private:
  SimStream<int>* in_;
  int consumed_ = 0;
};

TEST(CycleEngine, SteadyStateThroughputIsOnePerCycle) {
  SimStream<int> link({.capacity = 2});
  auto producer = std::make_unique<Producer>(link, 1000);
  auto consumer = std::make_unique<Consumer>(link);
  Consumer* consumer_ptr = consumer.get();

  CycleEngine engine;
  engine.add_stage(std::move(producer));
  engine.add_stage(std::move(consumer));
  const SimReport report = engine.run();

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(consumer_ptr->consumed(), 1000);
  // 1000 tokens in ~1000 cycles plus a couple of fill/drain cycles.
  EXPECT_LE(report.cycles, 1006u);
  EXPECT_GE(report.cycles, 1000u);
}

TEST(CycleEngine, ConsumerIiTwoHalvesThroughput) {
  SimStream<int> link({.capacity = 2});
  auto producer = std::make_unique<Producer>(link, 500);
  auto consumer = std::make_unique<Consumer>(link, /*ii=*/2);

  CycleEngine engine;
  engine.add_stage(std::move(producer));
  engine.add_stage(std::move(consumer));
  const SimReport report = engine.run();

  EXPECT_TRUE(report.completed);
  // The II=2 consumer retires one token every other cycle: ~1000 cycles.
  EXPECT_GE(report.cycles, 998u);
  EXPECT_LE(report.cycles, 1010u);
}

TEST(CycleEngine, ReportsStallsWhenDownstreamBlocks) {
  SimStream<int> link({.capacity = 1});
  auto producer = std::make_unique<Producer>(link, 100);
  auto consumer = std::make_unique<Consumer>(link, /*ii=*/4);

  CycleEngine engine;
  engine.add_stage(std::move(producer));
  engine.add_stage(std::move(consumer));
  const SimReport report = engine.run();
  EXPECT_TRUE(report.completed);

  // The producer must have stalled most of the time (downstream II=4).
  const double producer_occupancy = report.occupancy("producer");
  EXPECT_LT(producer_occupancy, 0.5);
}

TEST(CycleEngine, BudgetExhaustionReported) {
  // A consumer on a never-fed stream stalls forever.
  SimStream<int> link({.capacity = 1});
  auto consumer = std::make_unique<Consumer>(link);
  CycleEngine engine;
  engine.add_stage(std::move(consumer));
  const SimReport report = engine.run(100);
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.cycles, 100u);
}

TEST(CycleEngine, EmptyEngineCompletesImmediately) {
  CycleEngine engine;
  const SimReport report = engine.run();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.cycles, 0u);
}

TEST(ThreadedPipeline, RunsAllStagesConcurrently) {
  Stream<int> a_to_b({.capacity = 4});
  Stream<int> b_to_c({.capacity = 4});
  long long sum = 0;

  ThreadedPipeline pipeline;
  pipeline.add_stage("produce", [&] {
    for (int i = 1; i <= 100; ++i) {
      EXPECT_TRUE(a_to_b.push(i));
    }
    a_to_b.close();
  });
  pipeline.add_stage("double", [&] {
    while (auto v = a_to_b.pop()) {
      EXPECT_TRUE(b_to_c.push(*v * 2));
    }
    b_to_c.close();
  });
  pipeline.add_stage("reduce", [&] {
    while (auto v = b_to_c.pop()) {
      sum += *v;
    }
  });
  pipeline.run();
  EXPECT_EQ(sum, 2 * 100 * 101 / 2);
}

TEST(ThreadedPipeline, RethrowsStageException) {
  ThreadedPipeline pipeline;
  pipeline.add_stage("ok", [] {});
  pipeline.add_stage("bad", [] { throw std::runtime_error("stage failed"); });
  EXPECT_THROW(pipeline.run(), std::runtime_error);
}

}  // namespace
}  // namespace pw::dataflow
