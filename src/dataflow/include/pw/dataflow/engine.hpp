#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pw/dataflow/stage.hpp"
#include "pw/lint/checks.hpp"
#include "pw/lint/graph.hpp"

namespace pw::dataflow {

/// What to do with the static verifier's verdict before running a
/// pipeline whose graph was declared (set_graph):
///  - kEnforce: lint errors reject the run before the first cycle
///    (fail-fast; SimReport.lint_rejected is set, nothing is simulated).
///  - kWarn: diagnostics are attached to the report but the run proceeds
///    — the override for deliberately malformed experiments.
///  - kOff: skip the checks entirely.
enum class LintPolicy {
  kOff,
  kWarn,
  kEnforce,
};

/// Result of a cycle-level simulation run.
struct SimReport {
  std::uint64_t cycles = 0;
  bool completed = false;  ///< false when the budget ran out or it deadlocked
  bool deadlocked = false; ///< no stage fired for the detection window
  std::string deadlock_diagnosis;  ///< stalled stages + blocking streams
  std::vector<std::string> stage_names;
  std::vector<StageStats> stage_stats;

  /// Static verifier verdict (engaged when a graph was declared and the
  /// policy was not kOff). `lint_rejected` means the run was refused
  /// before the first cycle because the graph has errors.
  std::optional<lint::LintReport> lint;
  bool lint_rejected = false;

  /// Waveform capture (when tracing was enabled): one string per stage,
  /// one character per traced cycle — 'F' fired, 's' stalled, '.' idle,
  /// 'D' done.
  std::vector<std::string> trace;

  /// Fired fraction of the named stage (0 when missing).
  double occupancy(const std::string& name) const;
};

/// Renders the captured waveform as aligned lanes (the textual equivalent
/// of the schedule-viewer insight paper §III.C credits the Vitis analysis
/// pane with).
std::string render_trace(const SimReport& report);

/// Drives a set of ICycleStages one simulated clock cycle at a time until
/// every stage reports done (or the cycle budget runs out). Stages are
/// ticked in registration order within a cycle; because SimStreams bound
/// each hop, intra-cycle ordering only affects latency by ±1 cycle, not
/// steady-state throughput.
class CycleEngine {
public:
  /// Registers a stage; the engine takes ownership.
  void add_stage(std::unique_ptr<ICycleStage> stage);

  /// Captures a per-stage waveform for the first `max_cycles` cycles of
  /// the next run (see SimReport::trace).
  void enable_trace(std::uint64_t max_cycles = 2048);

  /// Aborts the run early when no stage fires for `window` consecutive
  /// cycles — a deadlocked design (e.g. mismatched FIFO protocol) is then
  /// diagnosed in the report instead of burning the whole cycle budget.
  /// 0 disables detection (the default keeps a generous window: II>1
  /// designs legitimately idle for short stretches).
  void set_deadlock_window(std::uint64_t window);

  /// Declares the stream-connectivity graph of the registered stages.
  /// run() then invokes the pw::lint battery before the first cycle
  /// (policy kEnforce by default: a malformed graph is rejected, not
  /// simulated) and deadlock diagnosis names the blocking streams via the
  /// graph's probes.
  void set_graph(lint::PipelineGraph graph);
  void set_lint_policy(LintPolicy policy) { lint_policy_ = policy; }
  const lint::PipelineGraph* graph() const noexcept {
    return graph_.has_value() ? &*graph_ : nullptr;
  }

  /// Runs until all stages are done. `max_cycles` guards against deadlock
  /// (a stalled design is reported, not hung).
  SimReport run(std::uint64_t max_cycles = UINT64_MAX);

private:
  std::vector<std::unique_ptr<ICycleStage>> stages_;
  std::uint64_t trace_cycles_ = 0;
  std::uint64_t deadlock_window_ = 4096;
  std::optional<lint::PipelineGraph> graph_;
  LintPolicy lint_policy_ = LintPolicy::kEnforce;
};

}  // namespace pw::dataflow
