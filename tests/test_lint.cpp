// pw::lint — the static dataflow-graph verifier. The tests build known-bad
// graphs (double writer, orphan consumer, undersized reconverge FIFOs, an
// II-mismatch chain) and check each produces the expected attributed
// diagnostic; the reconverge fixture additionally *runs* in the cycle
// engine to show the statically predicted deadlock is real. Every shipped
// pipeline registration must lint clean.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "pw/api/solver.hpp"
#include "pw/dataflow/engine.hpp"
#include "pw/dataflow/stream.hpp"
#include "pw/dataflow/streams.hpp"
#include "pw/dataflow/threaded.hpp"
#include "pw/kernel/pipeline_graph.hpp"
#include "pw/lint/checks.hpp"
#include "pw/lint/export.hpp"
#include "pw/obs/export.hpp"
#include "pw/obs/metrics.hpp"

namespace {

using namespace pw;

bool has_check(const lint::LintReport& report, const std::string& check,
               lint::Severity severity) {
  for (const auto& d : report.diagnostics) {
    if (d.check == check && d.severity == severity) {
      return true;
    }
  }
  return false;
}

const lint::Diagnostic* find_check(const lint::LintReport& report,
                                   const std::string& check) {
  for (const auto& d : report.diagnostics) {
    if (d.check == check) {
      return &d;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// connectivity checks

TEST(LintConnectivity, DoubleWriterIsAttributedToTheStream) {
  lint::PipelineGraph g;
  const int a = g.add_stage("writer_a");
  const int b = g.add_stage("writer_b");
  const int sink = g.add_stage("sink");
  const int s = g.add_stream("contested", 4);
  g.bind_producer(s, a);
  g.bind_producer(s, b);
  g.bind_consumer(s, sink);

  const auto report = lint::run_checks(g);
  EXPECT_FALSE(report.passed());
  EXPECT_TRUE(
      has_check(report, "connectivity.double_writer", lint::Severity::kError));
  const auto* d = find_check(report, "connectivity.double_writer");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->stream, "contested");
  EXPECT_FALSE(d->fix_hint.empty());
}

TEST(LintConnectivity, StreamWithoutConsumerIsAnError) {
  lint::PipelineGraph g;
  const int src = g.add_stage("source");
  const int s = g.add_stream("dangling", 4);
  g.bind_producer(s, src);

  const auto report = lint::run_checks(g);
  EXPECT_FALSE(report.passed());
  EXPECT_TRUE(has_check(report, "connectivity.unbound_consumer",
                        lint::Severity::kError));
  const auto* d = find_check(report, "connectivity.unbound_consumer");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->stream, "dangling");
}

TEST(LintConnectivity, StreamWithoutProducerIsAnError) {
  lint::PipelineGraph g;
  const int sink = g.add_stage("sink");
  const int s = g.add_stream("starved", 4);
  g.bind_consumer(s, sink);

  const auto report = lint::run_checks(g);
  EXPECT_TRUE(has_check(report, "connectivity.unbound_producer",
                        lint::Severity::kError));
}

TEST(LintConnectivity, OrphanStageIsFlaggedUnlessDetached) {
  lint::PipelineGraph g;
  const int a = g.add_stage("producer");
  const int b = g.add_stage("consumer");
  g.add_stage("floater");  // bound to nothing
  lint::StageNode housekeeping;
  housekeeping.name = "cycle_advance";
  housekeeping.detached = true;
  g.add_stage(housekeeping);
  const int s = g.add_stream("pipe", 2);
  g.bind_producer(s, a);
  g.bind_consumer(s, b);

  const auto report = lint::run_checks(g);
  const auto* d = find_check(report, "connectivity.orphan_stage");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->stage, "floater");
  // exactly one orphan: the detached housekeeping stage is exempt
  int orphans = 0;
  for (const auto& diag : report.diagnostics) {
    orphans += diag.check == "connectivity.orphan_stage" ? 1 : 0;
  }
  EXPECT_EQ(orphans, 1);
}

// ---------------------------------------------------------------------------
// deadlock checks

TEST(LintDeadlock, CycleInTheStageGraphIsAnError) {
  lint::PipelineGraph g;
  const int a = g.add_stage("a");
  const int b = g.add_stage("b");
  const int fwd = g.add_stream("forward", 2);
  const int back = g.add_stream("backward", 2);
  g.bind_producer(fwd, a);
  g.bind_consumer(fwd, b);
  g.bind_producer(back, b);
  g.bind_consumer(back, a);

  const auto report = lint::run_checks(g);
  EXPECT_FALSE(report.passed());
  EXPECT_TRUE(has_check(report, "deadlock.cycle", lint::Severity::kError));
}

// Builds fork -> {slow(latency), fast} -> join with the given FIFO depth on
// every stream of both paths.
lint::PipelineGraph reconverge_graph(std::size_t depth,
                                     std::uint64_t slow_latency) {
  lint::PipelineGraph g;
  const int fork = g.add_stage("fork");
  const int slow = g.add_stage("slow", 1, slow_latency);
  const int fast = g.add_stage("fast");
  const int join = g.add_stage("join");
  const int via_slow = g.add_stream("via_slow", depth);
  const int via_fast = g.add_stream("via_fast", depth);
  const int slow_out = g.add_stream("slow_out", depth);
  const int fast_out = g.add_stream("fast_out", depth);
  g.bind_producer(via_slow, fork);
  g.bind_consumer(via_slow, slow);
  g.bind_producer(via_fast, fork);
  g.bind_consumer(via_fast, fast);
  g.bind_producer(slow_out, slow);
  g.bind_consumer(slow_out, join);
  g.bind_producer(fast_out, fast);
  g.bind_consumer(fast_out, join);
  return g;
}

TEST(LintDeadlock, UndersizedReconvergeFifoIsAnError) {
  // fast-path capacity 2+2 = 4 < slow-path latency skew 8 -> deadlock
  const auto report = lint::run_checks(reconverge_graph(2, 8));
  EXPECT_FALSE(report.passed());
  const auto* d = find_check(report, "deadlock.reconverge_capacity");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, lint::Severity::kError);
  EXPECT_FALSE(d->fix_hint.empty());
}

TEST(LintDeadlock, ZeroSlackReconvergeIsAWarning) {
  // capacity 4+4 = 8 == skew 8: runs, but with zero slack
  const auto report = lint::run_checks(reconverge_graph(4, 8));
  EXPECT_TRUE(report.passed());
  EXPECT_TRUE(has_check(report, "deadlock.reconverge_capacity",
                        lint::Severity::kWarning));
}

TEST(LintDeadlock, AmpleReconvergeCapacityIsClean) {
  const auto report = lint::run_checks(reconverge_graph(5, 8));
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(find_check(report, "deadlock.reconverge_capacity"), nullptr);
}

// ---------------------------------------------------------------------------
// the predicted deadlock is real: the same undersized fork/join topology,
// built from live cycle stages, genuinely deadlocks the engine — and the
// engine's diagnosis names the blocking streams via the graph's probes.

using IntStream = dataflow::SimStream<int>;

class ForkStage : public dataflow::ICycleStage {
public:
  ForkStage(IntStream& a, IntStream& b, int total)
      : ICycleStage("fork"), a_(a), b_(b), total_(total) {}

protected:
  dataflow::TickResult step() override {
    if (sent_ == total_) {
      a_.set_eos();
      b_.set_eos();
      return dataflow::TickResult::kDone;
    }
    if (a_.full() || b_.full()) {
      return dataflow::TickResult::kStalled;
    }
    a_.push(sent_);
    b_.push(sent_);
    ++sent_;
    return dataflow::TickResult::kFired;
  }

private:
  IntStream& a_;
  IntStream& b_;
  int total_;
  int sent_ = 0;
};

// Passes elements through after an initial fill of `latency` elements —
// the shift-buffer behaviour that creates latency skew between siblings.
class FillThenEmitStage : public dataflow::ICycleStage {
public:
  FillThenEmitStage(std::string name, IntStream& in, IntStream& out,
                    std::size_t latency)
      : ICycleStage(std::move(name)), in_(in), out_(out), latency_(latency) {}

protected:
  dataflow::TickResult step() override {
    bool worked = false;
    // the fill ladder holds exactly `latency` elements plus the one in
    // flight — bounded storage, like the real shift buffer
    if (held_.size() <= latency_ && !in_.empty()) {
      held_.push_back(*in_.pop());
      worked = true;
    }
    const bool filling = !in_.eos() && held_.size() <= latency_;
    if (!held_.empty() && !filling && !out_.full()) {
      out_.push(held_.front());
      held_.pop_front();
      worked = true;
    }
    if (in_.finished() && held_.empty()) {
      out_.set_eos();
      return dataflow::TickResult::kDone;
    }
    return worked ? dataflow::TickResult::kFired
                  : dataflow::TickResult::kStalled;
  }

private:
  IntStream& in_;
  IntStream& out_;
  std::size_t latency_;
  std::deque<int> held_;
};

class JoinStage : public dataflow::ICycleStage {
public:
  JoinStage(IntStream& a, IntStream& b) : ICycleStage("join"), a_(a), b_(b) {}

  int received() const noexcept { return received_; }

protected:
  dataflow::TickResult step() override {
    if (a_.finished() && b_.finished()) {
      return dataflow::TickResult::kDone;
    }
    if (a_.empty() || b_.empty()) {
      return dataflow::TickResult::kStalled;
    }
    a_.pop();
    b_.pop();
    ++received_;
    return dataflow::TickResult::kFired;
  }

private:
  IntStream& a_;
  IntStream& b_;
  int received_ = 0;
};

struct ReconvergeRig {
  std::size_t depth;
  std::size_t slow_latency;
  IntStream via_slow, via_fast, slow_out, fast_out;

  ReconvergeRig(std::size_t d, std::size_t latency)
      : depth(d), slow_latency(latency),
        via_slow({.capacity = d, .name = "via_slow"}),
        via_fast({.capacity = d, .name = "via_fast"}),
        slow_out({.capacity = d, .name = "slow_out"}),
        fast_out({.capacity = d, .name = "fast_out"}) {}

  lint::PipelineGraph graph_with_probes() {
    lint::PipelineGraph g = reconverge_graph(depth, slow_latency);
    auto probe = [](const IntStream& s) {
      return [&s] {
        return lint::StreamProbe{s.size(), s.capacity(), s.eos()};
      };
    };
    g.set_probe(g.stream_index("via_slow"), probe(via_slow));
    g.set_probe(g.stream_index("via_fast"), probe(via_fast));
    g.set_probe(g.stream_index("slow_out"), probe(slow_out));
    g.set_probe(g.stream_index("fast_out"), probe(fast_out));
    return g;
  }

  void populate(dataflow::CycleEngine& engine, int total) {
    engine.add_stage(std::make_unique<ForkStage>(via_slow, via_fast, total));
    engine.add_stage(std::make_unique<FillThenEmitStage>(
        "slow", via_slow, slow_out, slow_latency));
    engine.add_stage(std::make_unique<FillThenEmitStage>("fast", via_fast,
                                                         fast_out, 0));
    engine.add_stage(std::make_unique<JoinStage>(slow_out, fast_out));
  }
};

TEST(LintDeadlock, EnforcingEngineRejectsTheGraphBeforeCycleZero) {
  ReconvergeRig rig(/*depth=*/2, /*slow_latency=*/12);
  dataflow::CycleEngine engine;
  rig.populate(engine, /*total=*/64);
  engine.set_graph(rig.graph_with_probes());  // kEnforce is the default

  const auto report = engine.run(100000);
  EXPECT_TRUE(report.lint_rejected);
  EXPECT_EQ(report.cycles, 0u);
  ASSERT_TRUE(report.lint.has_value());
  EXPECT_FALSE(report.lint->passed());
  EXPECT_NE(find_check(*report.lint, "deadlock.reconverge_capacity"),
            nullptr);
}

TEST(LintDeadlock, ThePredictedDeadlockReallyHappensUnderKWarn) {
  ReconvergeRig rig(/*depth=*/2, /*slow_latency=*/12);
  dataflow::CycleEngine engine;
  rig.populate(engine, /*total=*/64);
  engine.set_graph(rig.graph_with_probes());
  engine.set_lint_policy(dataflow::LintPolicy::kWarn);
  engine.set_deadlock_window(64);

  const auto report = engine.run(100000);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_FALSE(report.completed);
  // diagnosis names the blocking FIFOs, not just the stalled stages
  EXPECT_NE(report.deadlock_diagnosis.find("blocking streams"),
            std::string::npos)
      << report.deadlock_diagnosis;
  EXPECT_NE(report.deadlock_diagnosis.find("full"), std::string::npos)
      << report.deadlock_diagnosis;
  // the lint verdict rode along even though the run proceeded
  ASSERT_TRUE(report.lint.has_value());
  EXPECT_FALSE(report.lint->passed());
}

TEST(LintDeadlock, TheLintSuggestedCapacityActuallyRuns) {
  // capacity 7+7 = 14 > skew 12: lint passes and so does the simulation
  ReconvergeRig rig(/*depth=*/7, /*slow_latency=*/12);
  dataflow::CycleEngine engine;
  rig.populate(engine, /*total=*/64);
  engine.set_graph(rig.graph_with_probes());
  engine.set_deadlock_window(256);

  const auto report = engine.run(100000);
  EXPECT_FALSE(report.lint_rejected);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.deadlocked);
  ASSERT_TRUE(report.lint.has_value());
  EXPECT_TRUE(report.lint->passed());
}

// ---------------------------------------------------------------------------
// throughput checks

TEST(LintThroughput, IiMismatchChainReportsTheBottleneckFraction) {
  lint::PipelineGraph g;
  const int src = g.add_stage("read");
  const int slow = g.add_stage("uram_shift", /*ii=*/4);
  const int sink = g.add_stage("write");
  const int a = g.add_stream("a", 4);
  const int b = g.add_stream("b", 4);
  g.bind_producer(a, src);
  g.bind_consumer(a, slow);
  g.bind_producer(b, slow);
  g.bind_consumer(b, sink);

  const auto report = lint::run_checks(g);
  EXPECT_TRUE(report.passed());  // warning by default, not an error
  const auto* d = find_check(report, "throughput.ii_mismatch");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, lint::Severity::kWarning);
  EXPECT_EQ(d->stage, "uram_shift");
  EXPECT_DOUBLE_EQ(report.predicted_peak_fraction, 0.25);

  lint::LintOptions strict;
  strict.enforce_target_ii = true;
  const auto enforced = lint::run_checks(g, strict);
  EXPECT_FALSE(enforced.passed());
  EXPECT_TRUE(
      has_check(enforced, "throughput.ii_mismatch", lint::Severity::kError));
}

// ---------------------------------------------------------------------------
// shift-buffer geometry checks

TEST(LintShiftBuffer, HaloExceedingThePaddedFaceIsAnError) {
  lint::PipelineGraph g;
  lint::StageNode shift;
  shift.name = "shift_buffer";
  shift.shift_buffer = lint::ShiftBufferGeometry{/*ny_padded=*/2,
                                                 /*nz_padded=*/2, /*halo=*/1};
  const int s = g.add_stage(std::move(shift));
  const int src = g.add_stage("read");
  const int sink = g.add_stage("write");
  const int in = g.add_stream("in", 4);
  const int out = g.add_stream("out", 4);
  g.bind_producer(in, src);
  g.bind_consumer(in, s);
  g.bind_producer(out, s);
  g.bind_consumer(out, sink);

  const auto report = lint::run_checks(g);
  EXPECT_TRUE(has_check(report, "shift_buffer.halo_exceeds_face",
                        lint::Severity::kError));
}

TEST(LintShiftBuffer, NarrowChunkWarnsAboutShortBursts) {
  // interior width 4 (padded 6) < the default burst threshold of 8
  lint::PipelineGraph g;
  lint::StageNode shift;
  shift.name = "shift_buffer";
  shift.shift_buffer =
      lint::ShiftBufferGeometry{/*ny_padded=*/6, /*nz_padded=*/18,
                                /*halo=*/1};
  const int s = g.add_stage(std::move(shift));
  const int src = g.add_stage("read");
  const int sink = g.add_stage("write");
  const int in = g.add_stream("in", 4);
  const int out = g.add_stream("out", 4);
  g.bind_producer(in, src);
  g.bind_consumer(in, s);
  g.bind_producer(out, s);
  g.bind_consumer(out, sink);

  const auto report = lint::run_checks(g);
  EXPECT_TRUE(report.passed());
  EXPECT_TRUE(has_check(report, "shift_buffer.short_burst",
                        lint::Severity::kWarning));
}

// ---------------------------------------------------------------------------
// suppression

TEST(LintOptionsTest, SuppressionDropsFindingsAndRecordsItself) {
  lint::LintOptions options;
  options.suppress.push_back("deadlock.");
  const auto report =
      lint::run_checks(reconverge_graph(2, 8), options);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(find_check(report, "deadlock.reconverge_capacity"), nullptr);
  EXPECT_NE(find_check(report, "lint.suppressed"), nullptr);
}

// ---------------------------------------------------------------------------
// every shipped pipeline passes clean

TEST(LintShipped, EveryRegisteredPipelinePasses) {
  const auto& registry = kernel::registered_pipelines();
  ASSERT_GE(registry.size(), 5u);
  for (const auto& entry : registry) {
    const auto report = lint::run_checks(entry.build());
    EXPECT_TRUE(report.passed())
        << entry.name << ":\n" << report.summary();
  }
}

TEST(LintShipped, Fig2GraphHasTheExpectedShape) {
  kernel::PipelineGraphSpec spec;
  spec.dims = {16, 64, 16};
  const auto g = kernel::describe_kernel_pipeline(spec);
  // read -> shift -> replicate -> {advect u,v,w} -> write = 7 stages,
  // 8 streams
  EXPECT_EQ(g.stages().size(), 7u);
  EXPECT_EQ(g.streams().size(), 8u);
  EXPECT_NE(g.stage_index("replicate"), -1);
  EXPECT_NE(g.stream_index("rep_u"), -1);
}

TEST(LintShipped, MultiKernelGraphPrefixesEveryInstance) {
  kernel::PipelineGraphSpec spec;
  spec.dims = {16, 64, 16};
  spec.kernels = 3;
  const auto g = kernel::describe_kernel_pipeline(spec);
  EXPECT_NE(g.stage_index("k0/replicate"), -1);
  EXPECT_NE(g.stage_index("k2/replicate"), -1);
  EXPECT_NE(g.stream_index("k1/raster"), -1);
  EXPECT_TRUE(lint::run_checks(g).passed());
}

// ---------------------------------------------------------------------------
// ThreadedPipeline integration

TEST(LintThreaded, MalformedRegionIsRejectedBeforeAnyThreadSpawns) {
  dataflow::ThreadedPipeline region;
  std::atomic<bool> body_ran{false};
  region.add_stage("writer_a", [&] { body_ran = true; });
  region.add_stage("writer_b", [&] { body_ran = true; });
  region.add_stage("sink", [&] { body_ran = true; });

  lint::PipelineGraph g;
  const int a = g.add_stage("writer_a");
  const int b = g.add_stage("writer_b");
  const int sink = g.add_stage("sink");
  const int s = g.add_stream("contested", 4);
  g.bind_producer(s, a);
  g.bind_producer(s, b);
  g.bind_consumer(s, sink);
  region.set_graph(std::move(g));

  EXPECT_FALSE(region.verify().passed());
  EXPECT_THROW(region.run(), dataflow::LintError);
  EXPECT_FALSE(body_ran);

  // the override: kOff runs the (harmless) bodies anyway
  region.set_lint_policy(dataflow::LintPolicy::kOff);
  region.run();
  EXPECT_TRUE(body_ran);
}

// ---------------------------------------------------------------------------
// placement

// A clean 3-stage chain (source -> mid -> sink) whose stages are pinned to
// `pins[i]` (-1 = unpinned), so placement findings are the only ones.
lint::PipelineGraph pinned_chain(const std::vector<int>& pins) {
  lint::PipelineGraph g;
  std::vector<int> stages;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const int s = g.add_stage("stage" + std::to_string(i));
    stages.push_back(s);
    if (pins[i] >= 0) {
      g.set_pinned_core(s, pins[i]);
    }
    if (i > 0) {
      const int e = g.add_stream("s" + std::to_string(i), 4);
      g.bind_producer(e, stages[i - 1]);
      g.bind_consumer(e, s);
    }
  }
  return g;
}

TEST(LintPlacement, TwoStagesOnOneCoreWhileOthersAreFreeIsAnError) {
  lint::LintOptions options;
  options.available_cores = 4;
  const auto report = lint::run_checks(pinned_chain({0, 0, -1}), options);
  EXPECT_TRUE(has_check(report, "placement.oversubscribed",
                        lint::Severity::kError));
  const auto* diag = find_check(report, "placement.oversubscribed");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->stage, "stage1");  // the second stage landing on the core
  EXPECT_NE(diag->fix_hint.find("core 1"), std::string::npos)
      << "the hint must name a concrete free core: " << diag->fix_hint;
}

TEST(LintPlacement, SharingIsForcedWhenEveryCoreCarriesAPin) {
  lint::LintOptions options;
  options.available_cores = 2;
  const auto report =
      lint::run_checks(pinned_chain({0, 0, 1}), options);
  EXPECT_EQ(find_check(report, "placement.oversubscribed"), nullptr)
      << "more pinned stages than cores cannot avoid sharing";
}

TEST(LintPlacement, PinsWrapModuloAvailableCores) {
  // core(5) on a 4-core box lands on core 1 — exactly how apply_placement
  // wraps it — so it collides with an explicit core(1) pin.
  lint::LintOptions options;
  options.available_cores = 4;
  const auto report =
      lint::run_checks(pinned_chain({1, 5, -1}), options);
  EXPECT_TRUE(has_check(report, "placement.oversubscribed",
                        lint::Severity::kError));
}

TEST(LintPlacement, DistinctPinsAndUnknownTopologyAreClean) {
  lint::LintOptions options;
  options.available_cores = 4;
  EXPECT_EQ(find_check(lint::run_checks(pinned_chain({0, 1, 2}), options),
                       "placement.oversubscribed"),
            nullptr);
  // available_cores == 0: a bare graph knows nothing about the machine.
  EXPECT_EQ(find_check(lint::run_checks(pinned_chain({0, 0, -1})),
                       "placement.oversubscribed"),
            nullptr);
}

TEST(LintPlacement, ThreadedPipelineAnnotatesRealPlacement) {
  if (dataflow::placement_cores() < 3) {
    GTEST_SKIP() << "needs >= 3 online cores to leave one free";
  }
  dataflow::ThreadedPipeline region;
  region.add_stage("producer", [] {}, dataflow::PlacementSpec::core(0));
  region.add_stage("consumer", [] {}, dataflow::PlacementSpec::core(0));

  lint::PipelineGraph g;
  const int producer = g.add_stage("producer");
  const int consumer = g.add_stage("consumer");
  const int s = g.add_stream("hot", 4);
  g.bind_producer(s, producer);
  g.bind_consumer(s, consumer);
  region.set_graph(std::move(g));

  // The declared graph carries no pins; verify() must see the
  // PlacementSpecs anyway.
  const auto report = region.verify();
  EXPECT_TRUE(has_check(report, "placement.oversubscribed",
                        lint::Severity::kError));
  EXPECT_THROW(region.run(), dataflow::LintError);
}

// ---------------------------------------------------------------------------
// capacity.live_mismatch edge cases

lint::PipelineGraph probed_pair(std::size_t declared,
                                std::function<lint::StreamProbe()> probe) {
  lint::PipelineGraph g;
  const int producer = g.add_stage("producer");
  const int consumer = g.add_stage("consumer");
  const int s = g.add_stream("probed", declared);
  g.bind_producer(s, producer);
  g.bind_consumer(s, consumer);
  g.set_probe(s, std::move(probe));
  return g;
}

std::function<lint::StreamProbe()> probe_of(
    const dataflow::Stream<int>& stream) {
  return [&stream] {
    return lint::StreamProbe{stream.size(), stream.capacity(),
                             stream.exhausted()};
  };
}

TEST(LintCapacity, OneCapacityStreamMismatchIsCaught) {
  dataflow::Stream<int> stream({.capacity = 1});
  EXPECT_TRUE(has_check(lint::run_checks(probed_pair(2, probe_of(stream))),
                        "capacity.live_mismatch", lint::Severity::kError));
  EXPECT_EQ(find_check(lint::run_checks(probed_pair(1, probe_of(stream))),
                       "capacity.live_mismatch"),
            nullptr);
  // The other direction: a declared depth below the live capacity (whose
  // ring rounds its slots up to 4) is a mismatch too.
  dataflow::Stream<int> wider({.capacity = 3});
  EXPECT_TRUE(has_check(lint::run_checks(probed_pair(2, probe_of(wider))),
                        "capacity.live_mismatch", lint::Severity::kError));
  EXPECT_EQ(find_check(lint::run_checks(probed_pair(3, probe_of(wider))),
                       "capacity.live_mismatch"),
            nullptr);
}

TEST(LintCapacity, ZeroDeclaredDepthSkipsTheComparison) {
  // Depth 0 means "unspecified" in a declared graph; there is nothing to
  // compare the live capacity against.
  dataflow::Stream<int> stream({.capacity = 1});
  EXPECT_EQ(find_check(lint::run_checks(probed_pair(0, probe_of(stream))),
                       "capacity.live_mismatch"),
            nullptr);
}

TEST(LintCapacity, ZeroProbeCapacityMeansUnsampleable) {
  const auto report = lint::run_checks(
      probed_pair(4, [] { return lint::StreamProbe{0, 0, false}; }));
  EXPECT_EQ(find_check(report, "capacity.live_mismatch"), nullptr);
}

TEST(LintCapacity, StreamProbedAfterCloseStillReportsHonestly) {
  dataflow::Stream<int> stream({.capacity = 2});
  ASSERT_TRUE(stream.try_push(7));
  stream.close();
  // eos does not suppress the check: capacity is still introspectable.
  EXPECT_TRUE(has_check(lint::run_checks(probed_pair(3, probe_of(stream))),
                        "capacity.live_mismatch", lint::Severity::kError));
  EXPECT_EQ(find_check(lint::run_checks(probed_pair(2, probe_of(stream))),
                       "capacity.live_mismatch"),
            nullptr);
}

// ---------------------------------------------------------------------------
// solver facade

TEST(LintSolver, ValidateAcceptsShippedConfigurations) {
  api::SolverOptions options;
  options.backend = api::Backend::kFused;
  const api::Solver solver(options);
  const auto report = solver.validate({16, 64, 16});
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_NE(find_check(report, "throughput.predicted_peak"), nullptr);
}

TEST(LintSolver, ValidateRejectsBadOptionsAsDiagnostics) {
  api::SolverOptions options;
  options.backend = api::MultiKernelOptions{.kernels = 0};
  const api::Solver solver(options);
  const auto report = solver.validate({16, 64, 16});
  EXPECT_FALSE(report.passed());
  EXPECT_NE(find_check(report, "options.invalid"), nullptr);

  const auto empty_grid =
      api::Solver(api::SolverOptions{}).validate({0, 64, 16});
  EXPECT_FALSE(empty_grid.passed());
}

TEST(LintSolver, NonDataflowBackendsReportOnlyOptionChecks) {
  api::SolverOptions options;
  options.backend = api::Backend::kReference;
  const auto report = api::Solver(options).validate({8, 8, 8});
  EXPECT_TRUE(report.passed());
  EXPECT_NE(find_check(report, "options.no_dataflow"), nullptr);
}

// ---------------------------------------------------------------------------
// export

TEST(LintExport, JsonCarriesCheckIdsAndSeverities) {
  const auto report = lint::run_checks(reconverge_graph(2, 8));
  const std::string json = lint::to_json(report);
  EXPECT_NE(json.find("deadlock.reconverge_capacity"), std::string::npos);
  EXPECT_NE(json.find("\"severity\""), std::string::npos);
  EXPECT_NE(json.find("\"fix_hint\""), std::string::npos);
}

TEST(LintExport, PublishFeedsTheObsRegistry) {
  obs::MetricsRegistry registry;
  lint::publish(lint::run_checks(reconverge_graph(2, 8)), registry, "lint");
  const auto snapshot = registry.snapshot();
  double errors = -1.0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "lint.errors") {
      errors = value;
    }
  }
  EXPECT_GT(errors, 0.0);
  const std::string json = obs::to_json(registry);
  EXPECT_NE(json.find("lint.errors"), std::string::npos);
}

}  // namespace
