#include "workloads.hpp"

#include <algorithm>
#include <limits>

#include "stats.hpp"

namespace perfbench {

void closed_loop_metrics(
    const std::vector<std::vector<ClosedLoopOp>>& cycles,
    RunResult& result) {
  // Per request kind (position in the cycle): the fastest wall and CPU time
  // seen and the share of its ops that passed the check.
  struct Kind {
    double min_wall_s = std::numeric_limits<double>::infinity();
    double min_cpu_s = std::numeric_limits<double>::infinity();
    double flops = 0.0;
    std::size_t ops = 0;
    std::size_t ok = 0;
  };
  std::vector<Kind> kinds;
  std::vector<double> latencies_ms;
  for (const std::vector<ClosedLoopOp>& cycle : cycles) {
    kinds.resize(std::max(kinds.size(), cycle.size()));
    for (std::size_t k = 0; k < cycle.size(); ++k) {
      const ClosedLoopOp& op = cycle[k];
      Kind& kind = kinds[k];
      kind.min_wall_s = std::min(kind.min_wall_s, op.wall_s);
      kind.min_cpu_s = std::min(kind.min_cpu_s, op.cpu_s);
      kind.flops = static_cast<double>(op.flops);
      ++kind.ops;
      kind.ok += op.ok ? 1 : 0;
      latencies_ms.push_back(op.wall_s * 1e3);
    }
  }
  double cycle_s = 0.0;
  double cycle_cpu_s = 0.0;
  double ok_flops = 0.0;
  double ok_ops = 0.0;
  std::vector<double> fastest_ms;  // per kind
  for (const Kind& kind : kinds) {
    const double ok_share =
        static_cast<double>(kind.ok) / static_cast<double>(kind.ops);
    cycle_s += kind.min_wall_s;
    cycle_cpu_s += kind.min_cpu_s;
    ok_flops += kind.flops * ok_share;
    ok_ops += ok_share;
    fastest_ms.push_back(kind.min_wall_s * 1e3);
  }
  const bool timed = !kinds.empty() && cycle_s > 0.0;
  const Percentile p50 = percentile(latencies_ms, 0.50);
  const Percentile p99 = percentile(latencies_ms, 0.99);
  result.end_to_end["gflops"] = {timed ? ok_flops / cycle_s / 1e9 : 0.0,
                                 "GFLOP/s"};
  result.end_to_end["goodput_rps"] = {timed ? ok_ops / cycle_s : 0.0, "1/s"};
  result.end_to_end["cpu_ms_per_op"] = {
      timed ? cycle_cpu_s * 1e3 / static_cast<double>(kinds.size()) : 0.0,
      "ms"};
  // Latencies from the same per-kind fastest calls: the median kind's and
  // the slowest kind's. solve's kinds differ in time by over 30x, so a
  // pooled median falls in the gap between two kinds and jumps with their
  // extremes, and too few of its ops lie beyond a sampled p99 for it to
  // repeat.
  result.end_to_end["latency_p50_ms"] = {median(fastest_ms), "ms"};
  result.end_to_end["latency_p99_ms"] = {
      fastest_ms.empty()
          ? 0.0
          : *std::max_element(fastest_ms.begin(), fastest_ms.end()),
      "ms"};
  result.notes.push_back(
      "closed loop: " + std::to_string(cycles.size()) + " cycles, " +
      std::to_string(p99.samples) + " ops; pooled p50 " +
      std::to_string(p50.value) + " ms; a sampled p99 (" +
      std::to_string(p99.value) + " ms) would have " +
      std::to_string(p99.beyond) +
      " samples beyond it, so latency_p99_ms reports the slowest kind's "
      "fastest call");
}

}  // namespace perfbench
