#pragma once

#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "pw/dataflow/engine.hpp"
#include "pw/dataflow/placement.hpp"
#include "pw/lint/checks.hpp"
#include "pw/lint/graph.hpp"

namespace pw::dataflow {

/// Thrown by ThreadedPipeline::run when the declared graph fails the
/// static checks under LintPolicy::kEnforce. Carries the full report so
/// callers can render or export the diagnostics.
class LintError : public std::runtime_error {
public:
  explicit LintError(lint::LintReport report)
      : std::runtime_error(report.summary()), report_(std::move(report)) {}

  const lint::LintReport& report() const noexcept { return report_; }

private:
  lint::LintReport report_;
};

/// Runs a set of stage bodies truly concurrently, one thread each — the
/// execution model of an HLS `dataflow` region (every box of the paper's
/// Fig. 2 runs at once, synchronising only through streams).
///
/// Bodies must terminate on their own (producers close() their output
/// streams; consumers exit on end-of-stream). The first exception thrown by
/// any body is rethrown from run() after all threads join.
class ThreadedPipeline {
public:
  /// One stage's placement outcome after run(): what was requested, and
  /// whether the affinity syscall actually took (false never fails the
  /// run — placement is advisory).
  struct PlacementNote {
    std::string stage;
    PlacementSpec requested;
    bool applied = false;
  };

  /// Adds a named stage body, optionally pinning its thread. The default
  /// is the old behaviour (scheduler's choice); pass
  /// PlacementSpec::core(n) to give latency-critical stages (the paper's
  /// advect trio) stable cache homes.
  void add_stage(std::string name, std::function<void()> body,
                 PlacementSpec placement = PlacementSpec::unpinned());

  /// Declares the stream wiring of the stage bodies. run() then verifies
  /// the graph statically before spawning any thread — a malformed region
  /// is rejected as a LintError instead of deadlocking live threads
  /// (policy kEnforce; kWarn/kOff override).
  void set_graph(lint::PipelineGraph graph);
  void set_lint_policy(LintPolicy policy) { lint_policy_ = policy; }
  const lint::PipelineGraph* graph() const noexcept {
    return graph_.has_value() ? &*graph_ : nullptr;
  }

  /// Runs the static checks without launching anything (empty report when
  /// no graph was declared). The same verdict run() acts on.
  lint::LintReport verify() const;

  /// Launches every stage, waits for completion, rethrows the first failure.
  void run();

  std::size_t stages() const noexcept { return bodies_.size(); }

  /// Per-stage placement outcomes of the most recent run() (empty before
  /// the first run). Tests and obs use this to see whether pins took.
  const std::vector<PlacementNote>& placement_report() const noexcept {
    return placement_report_;
  }

private:
  struct NamedBody {
    std::string name;
    std::function<void()> body;
    PlacementSpec placement;
  };
  std::vector<NamedBody> bodies_;
  std::optional<lint::PipelineGraph> graph_;
  LintPolicy lint_policy_ = LintPolicy::kEnforce;
  std::vector<PlacementNote> placement_report_;
};

}  // namespace pw::dataflow
