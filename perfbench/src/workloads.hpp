#pragma once

// The three benchmark workloads. Each run_* call sets up its inputs from
// the seed (several times, reporting the median set-up), computes the
// reference answers, measures for the requested seconds and checks every
// result. With a tracer it also records spans and fills `layers`.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sys.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Set-ups per run: at least kMinSetups and until kMinSetupSeconds have
/// passed, at most kMaxSetups. setup_s is their median, so one slow set-up
/// (a cold process) does not decide it, and a short set-up is sampled over
/// long enough that a brief stall of the host does not either.
inline constexpr std::size_t kMinSetups = 5;
inline constexpr std::size_t kMaxSetups = 15;
inline constexpr double kMinSetupSeconds = 2.0;

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;  ///< null: untraced
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  MetricMap end_to_end;
  MetricMap layers;                ///< per-layer metrics, traced runs only
  std::vector<std::string> notes;  ///< human-readable lines (sample counts)
};

RunResult run_solve(const RunOptions& options);
RunResult run_serve(const RunOptions& options);
RunResult run_sharded(const RunOptions& options);

/// Builds a workload's state repeatedly (see kMinSetups), dropping the
/// previous one first, and returns the last together with every set-up
/// time.
template <typename Make>
auto repeated_setup(Make make, std::vector<double>& seconds) {
  decltype(make()) state;
  const double first = now_s();
  while (seconds.size() < kMaxSetups &&
         (seconds.size() < kMinSetups || now_s() - first < kMinSetupSeconds)) {
    state.reset();
    const double start = now_s();
    state = make();
    seconds.push_back(now_s() - start);
  }
  return state;
}

/// One timed solve of a closed loop.
struct ClosedLoopOp {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU over the call
  std::uint64_t flops = 0;
  bool ok = false;
};

/// End-to-end metrics of a closed loop measured in whole cycles. gflops,
/// goodput_rps and cpu_ms_per_op come from each request kind's fastest
/// wall and CPU time over the cycles, weighted by the kind's share of ok
/// results: contention on a shared host only ever adds time, so the
/// per-kind minimum is the steadiest estimate of what the code costs.
/// latency_p50_ms and latency_p99_ms are the median and the slowest of the
/// kinds' fastest calls: `solve` makes too few ops for ten samples to lie
/// beyond a sampled p99.
void closed_loop_metrics(
    const std::vector<std::vector<ClosedLoopOp>>& cycles,
    RunResult& result);

/// Runs `solve` until two consecutive wall times agree within 15% (at
/// least twice, at most five times): the warm-up every distinct request
/// gets before timing.
template <typename Solve>
void run_until_settled(Solve solve) {
  constexpr std::size_t kMinRuns = 2;
  constexpr std::size_t kMaxRuns = 5;
  constexpr double kSettled = 0.15;
  double previous = -1.0;
  for (std::size_t run = 1; run <= kMaxRuns; ++run) {
    const double start = now_s();
    solve();
    const double wall = now_s() - start;
    if (run >= kMinRuns && wall <= previous * (1.0 + kSettled) &&
        wall >= previous * (1.0 - kSettled)) {
      return;
    }
    previous = wall;
  }
}

}  // namespace perfbench
