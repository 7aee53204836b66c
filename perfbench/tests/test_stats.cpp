// Tests of the benchmark's metric math on synthetic inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::vector<double> shuffled_1_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  std::shuffle(values.begin(), values.end(), std::mt19937(7));
  return values;
}

TEST(Percentile, NearestRankWithTenSamplesBeyondP99) {
  const Percentile p99 = percentile(shuffled_1_to(1000), 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);

  const Percentile p50 = percentile(shuffled_1_to(1000), 0.50);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(Percentile, ReportsTooFewSamplesBeyondASmallTail) {
  const Percentile p99 = percentile(shuffled_1_to(100), 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.beyond, 1u);  // a p99 over 100 samples is not trustworthy
}

TEST(Percentile, EdgeCases) {
  EXPECT_EQ(percentile({}, 0.5).samples, 0u);
  EXPECT_EQ(percentile({}, 0.5).value, 0.0);
  EXPECT_EQ(percentile({4.0}, 0.99).value, 4.0);
  EXPECT_EQ(percentile({4.0}, 0.99).beyond, 0u);
  const Percentile max = percentile(shuffled_1_to(10), 1.0);
  EXPECT_EQ(max.value, 10.0);
  EXPECT_EQ(max.beyond, 0u);
}

TEST(WindowedPercentile, MedianOverWindowsIgnoresOneDisturbedWindow) {
  // Three 1-s windows of 100 samples each, the middle one disturbed, and a
  // closing sample at t = 3 that folds into the last window.
  std::vector<std::pair<double, double>> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) {
      const double value = w == 1 ? 50.0 * i : static_cast<double>(i);
      samples.emplace_back(w + (i - 1) / 100.0, value);
    }
  }
  samples.emplace_back(3.0, 1.0);
  const WindowedPercentile p99 = windowed_percentile(samples, 1.0, 0.99);
  EXPECT_EQ(p99.windows, 3u);
  EXPECT_EQ(p99.samples, 301u);
  EXPECT_EQ(p99.min_beyond, 1u);
  EXPECT_EQ(p99.value, 99.0);  // windows give 99, 4950, 99
}

TEST(WindowedPercentile, PartialLastWindowFoldsIntoThePreviousOne) {
  const WindowedPercentile p =
      windowed_percentile({{0.0, 1.0}, {0.5, 2.0}, {1.2, 3.0}}, 1.0, 1.0);
  EXPECT_EQ(p.windows, 1u);
  EXPECT_EQ(p.value, 3.0);
  EXPECT_EQ(windowed_percentile({}, 1.0, 0.5).windows, 0u);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Goodput, CountsOnlyOkCompletionsWithinTheDeadline) {
  // Times are exact binary fractions, so "at the deadline" is exact.
  const std::vector<Completion> completions = {
      {0.0, 0.125, true},   // good
      {1.0, 1.25, true},    // exactly at the deadline: good
      {2.0, 2.375, true},   // late: a miss, not a failure
      {3.0, 3.125, false},  // failed check: a miss and a failure
      {4.0, 0.0, false},    // shed, never completed
      {5.0, 5.0, true},     // good
  };
  const GoodputTally tally = goodput(completions, 0.25, 2.0);
  EXPECT_EQ(tally.attempted, 6u);
  EXPECT_EQ(tally.failed, 2u);
  EXPECT_EQ(tally.good, 3u);
  EXPECT_DOUBLE_EQ(tally.goodput_rps, 1.5);
}

TEST(Goodput, EmptyScheduleHasNoRate) {
  EXPECT_EQ(goodput({}, 0.010, 0.0).goodput_rps, 0.0);
}

TEST(QueueWait, LatencyLessLagSubmitAndSolve) {
  ServeTiming timing;
  timing.latency_s = 0.0100;
  timing.lag_s = 0.0010;
  timing.submit_s = 0.0005;
  timing.solve_s = 0.0030;
  timing.ok = true;
  const auto wait = queue_wait_s(timing);
  ASSERT_TRUE(wait.has_value());
  EXPECT_NEAR(*wait, 0.0055, 1e-15);
}

TEST(QueueWait, ExcludesCachedAndFailedResults) {
  ServeTiming cached;
  cached.latency_s = 0.0002;
  cached.solve_s = 0.0040;  // the original solve's seconds, not waited for
  cached.cached = true;
  cached.ok = true;
  EXPECT_FALSE(queue_wait_s(cached).has_value());

  ServeTiming failed;
  failed.latency_s = 0.001;
  EXPECT_FALSE(queue_wait_s(failed).has_value());
}

TEST(KernelTraffic, BytesAndFlopsMatchTotalFlops) {
  const pw::grid::GridDims dims{64, 64, 64};
  pw::api::PoissonOptions sixteen;
  sixteen.iterations = 16;
  const std::vector<std::pair<pw::api::KernelSpec, double>> cases = {
      {pw::api::Kernel::kAdvectPw, 48.0},       // 3 in + 3 out
      {pw::api::Kernel::kDiffusion, 48.0},      // 3 in + 3 out
      {pw::api::Kernel::kPoissonJacobi, 192.0}, // (2 in + 1 out) x 8 sweeps
      {sixteen, 384.0},                         // x 16 sweeps
  };
  for (const auto& [spec, bytes_per_cell] : cases) {
    const KernelTraffic traffic = kernel_traffic(spec, dims);
    EXPECT_EQ(traffic.bytes_per_cell, bytes_per_cell);
    const double flops = traffic.flops_per_byte * traffic.bytes_per_cell *
                         static_cast<double>(dims.cells());
    EXPECT_NEAR(flops,
                static_cast<double>(pw::api::total_flops(spec, dims)),
                1e-6 * flops);
  }
  // More sweeps scale bytes and FLOPs together.
  EXPECT_DOUBLE_EQ(
      kernel_traffic(sixteen, dims).flops_per_byte,
      kernel_traffic(pw::api::Kernel::kPoissonJacobi, dims).flops_per_byte);
}

TEST(ServeMath, GeneratorOvershootExcludesTimeSpentInSubmit) {
  // Due every 1 ms. Request 0 is sent 0.5 ms late: the generator's own
  // overshoot. Request 1's submit takes 3 ms, so request 2 (due at 2) can
  // go no earlier than 4: its 2 ms lag is the service's and stays in the
  // latency. Request 3 is sent 0.2 ms late with the generator long idle.
  const std::vector<double> due = {0.0, 1.0, 2.0, 10.0};
  std::vector<ServeTiming> timings(4);
  const double lags[] = {0.5, 0.0, 2.0, 0.2};
  const double submits[] = {0.1, 3.0, 0.1, 0.1};
  for (std::size_t i = 0; i < timings.size(); ++i) {
    timings[i].lag_s = lags[i];
    timings[i].submit_s = submits[i];
  }
  const std::vector<double> overshoot = generator_overshoot_s(due, timings);
  ASSERT_EQ(overshoot.size(), 4u);
  EXPECT_DOUBLE_EQ(overshoot[0], 0.5);
  EXPECT_DOUBLE_EQ(overshoot[1], 0.0);
  EXPECT_DOUBLE_EQ(overshoot[2], 0.0);
  EXPECT_NEAR(overshoot[3], 0.2, 1e-12);
  // A generator that wakes 1 ms late and then sends the backlog: each
  // request in it carries the overshoot, since an on-time generator would
  // have sent every one of them when due.
  const std::vector<double> burst_due = {0.0, 0.1, 0.2};
  std::vector<ServeTiming> burst(3);
  burst[0].lag_s = 1.0;
  burst[1].lag_s = 0.95;
  burst[2].lag_s = 0.9;
  for (ServeTiming& t : burst) {
    t.submit_s = 0.05;
  }
  const std::vector<double> late = generator_overshoot_s(burst_due, burst);
  EXPECT_DOUBLE_EQ(late[0], 1.0);
  EXPECT_NEAR(late[1], 0.95, 1e-12);
  EXPECT_NEAR(late[2], 0.9, 1e-12);
}

TEST(ClosedLoop, FastestTimePerKindWeightedByOkShare) {
  // Two request kinds of 2 GFLOP each, three cycles. Kind 0 is fastest in
  // cycle 2 (0.4 s); kind 1 in cycle 1 (0.5 s) and fails once.
  const auto op = [](double wall, double cpu, bool ok) {
    return ClosedLoopOp{wall, cpu, 2'000'000'000, ok};
  };
  const std::vector<std::vector<ClosedLoopOp>> cycles = {
      {op(0.6, 0.9, true), op(0.5, 0.7, true)},
      {op(0.4, 0.5, true), op(0.9, 1.2, false)},
      {op(0.8, 1.1, true), op(0.7, 0.6, true)},
  };
  RunResult result;
  closed_loop_metrics(cycles, result);
  // Fastest cycle: 0.4 + 0.5 = 0.9 s; ok work: 2 + 2 * 2/3 GFLOP.
  EXPECT_NEAR(result.end_to_end.at("gflops").value, (2.0 + 4.0 / 3.0) / 0.9,
              1e-12);
  EXPECT_NEAR(result.end_to_end.at("goodput_rps").value, (1.0 + 2.0 / 3.0) / 0.9,
              1e-12);
  EXPECT_NEAR(result.end_to_end.at("cpu_ms_per_op").value,
              (0.5 + 0.6) * 1e3 / 2.0, 1e-9);
  // Latencies from each kind's fastest call, 400 and 500 ms: the median
  // kind's and the slowest kind's.
  EXPECT_DOUBLE_EQ(result.end_to_end.at("latency_p50_ms").value, 450.0);
  EXPECT_DOUBLE_EQ(result.end_to_end.at("latency_p99_ms").value, 500.0);
}

TEST(Tracing, CoveredSecondsIsTheClippedUnion) {
  EXPECT_DOUBLE_EQ(covered_seconds({{1, 3}, {2, 4}, {6, 7}}, 0, 10), 4.0);
  EXPECT_DOUBLE_EQ(covered_seconds({{-1, 2}, {9, 12}}, 0, 10), 3.0);
  EXPECT_DOUBLE_EQ(covered_seconds({}, 0, 10), 0.0);
}

TEST(Tracing, SelfTimeAndUnattributedShare) {
  std::vector<SpanRecord> spans;
  const auto add = [&](std::uint64_t id, std::uint64_t parent,
                       const char* layer, const char* name, double start,
                       double end, bool wait = false) {
    SpanRecord span;
    span.id = id;
    span.parent = parent;
    span.layer = layer;
    span.name = name;
    span.start_s = start;
    span.end_s = end;
    span.wait = wait;
    spans.push_back(span);
  };
  add(1, 0, "bench", "serve.timed", 0.0, 10.0);
  add(2, 1, "api", "Solver::solve", 1.0, 5.0);
  add(3, 2, "engine", "pass", 2.0, 3.0);
  add(4, 1, "serve", "request in flight", 4.0, 8.0, /*wait=*/true);

  const auto layers = summarise_layers(spans);
  EXPECT_EQ(layers.at("api").count, 1u);
  EXPECT_DOUBLE_EQ(layers.at("api").self_s, 3.0);
  EXPECT_DOUBLE_EQ(layers.at("engine").self_s, 1.0);
  EXPECT_EQ(layers.at("serve").count, 0u);
  EXPECT_DOUBLE_EQ(layers.at("serve").wait_s, 4.0);

  // Children cover [1, 8) of the 10 s phase.
  EXPECT_DOUBLE_EQ(unattributed_shares(spans).at("serve.timed"), 0.3);
}

}  // namespace
