#include "pw/dataflow/engine.hpp"

#include <algorithm>
#include <sstream>

namespace pw::dataflow {

std::string render_trace(const SimReport& report) {
  if (report.trace.empty()) {
    return "(no trace captured)\n";
  }
  std::size_t widest = 0;
  for (const auto& name : report.stage_names) {
    widest = std::max(widest, name.size());
  }
  std::ostringstream os;
  for (std::size_t s = 0; s < report.trace.size(); ++s) {
    const std::string name =
        s < report.stage_names.size() ? report.stage_names[s] : "?";
    os << name << std::string(widest - name.size() + 1, ' ')
       << report.trace[s] << '\n';
  }
  os << "(F fired, s stalled, . idle, D done)\n";
  return os.str();
}

double SimReport::occupancy(const std::string& name) const {
  for (std::size_t i = 0; i < stage_names.size(); ++i) {
    if (stage_names[i] == name) {
      return stage_stats[i].occupancy();
    }
  }
  return 0.0;
}

void CycleEngine::add_stage(std::unique_ptr<ICycleStage> stage) {
  stages_.push_back(std::move(stage));
}

void CycleEngine::enable_trace(std::uint64_t max_cycles) {
  trace_cycles_ = max_cycles;
}

void CycleEngine::set_deadlock_window(std::uint64_t window) {
  deadlock_window_ = window;
}

void CycleEngine::set_graph(lint::PipelineGraph graph) {
  graph_ = std::move(graph);
}

namespace {
char trace_mark(TickResult result) {
  switch (result) {
    case TickResult::kFired:
      return 'F';
    case TickResult::kStalled:
      return 's';
    case TickResult::kIdle:
      return '.';
    case TickResult::kDone:
      return 'D';
  }
  return '?';
}
}  // namespace

namespace {

/// Samples every probed stream of `graph` and names the ones whose state
/// explains a stall: full FIFOs wedge their producer, empty ones starve
/// their consumer. This is the edge-level half of deadlock diagnosis (the
/// stage-level half lists which stages are blocked).
std::string describe_blocking_streams(const lint::PipelineGraph& graph) {
  std::ostringstream os;
  bool any = false;
  for (const lint::StreamEdge& edge : graph.streams()) {
    if (!edge.probe) {
      continue;
    }
    const lint::StreamProbe probe = edge.probe();
    if (probe.size >= probe.capacity && probe.capacity > 0) {
      os << (any ? ", " : "") << '\'' << edge.name << "' (depth "
         << probe.capacity << ") full";
      any = true;
    } else if (probe.size == 0 && !probe.eos) {
      os << (any ? ", " : "") << '\'' << edge.name << "' (depth "
         << probe.capacity << ") empty";
      any = true;
    }
  }
  return any ? os.str() : std::string();
}

}  // namespace

SimReport CycleEngine::run(std::uint64_t max_cycles) {
  SimReport report;
  if (graph_.has_value() && lint_policy_ != LintPolicy::kOff) {
    report.lint = lint::run_checks(*graph_);
    if (!report.lint->passed() && lint_policy_ == LintPolicy::kEnforce) {
      // Fail fast: a malformed graph is rejected before the first cycle
      // instead of burning the budget to rediscover it as a deadlock.
      report.lint_rejected = true;
      report.deadlock_diagnosis = report.lint->summary();
      for (const auto& stage : stages_) {
        report.stage_names.push_back(stage->name());
        report.stage_stats.push_back(stage->stats());
      }
      return report;
    }
  }
  if (trace_cycles_ > 0) {
    report.trace.assign(stages_.size(), std::string());
  }
  std::uint64_t cycle = 0;
  std::uint64_t cycles_without_fire = 0;
  bool all_done = stages_.empty();
  while (!all_done && cycle < max_cycles) {
    all_done = true;
    bool fired_any = false;
    for (std::size_t s = 0; s < stages_.size(); ++s) {
      const TickResult result = stages_[s]->tick(cycle);
      fired_any = fired_any || result == TickResult::kFired;
      if (cycle < trace_cycles_) {
        report.trace[s].push_back(trace_mark(result));
      }
      all_done = all_done && stages_[s]->done();
    }
    ++cycle;
    if (all_done) {
      break;
    }
    cycles_without_fire = fired_any ? 0 : cycles_without_fire + 1;
    if (deadlock_window_ > 0 && cycles_without_fire >= deadlock_window_) {
      report.deadlocked = true;
      std::ostringstream diagnosis;
      diagnosis << "no stage fired for " << cycles_without_fire
                << " cycles; states:";
      for (const auto& stage : stages_) {
        diagnosis << ' ' << stage->name()
                  << (stage->done() ? "=done" : "=blocked");
      }
      if (graph_.has_value()) {
        const std::string streams = describe_blocking_streams(*graph_);
        if (!streams.empty()) {
          diagnosis << "; blocking streams: " << streams;
        }
      }
      report.deadlock_diagnosis = diagnosis.str();
      break;
    }
  }
  report.cycles = cycle;
  report.completed = all_done;
  report.stage_names.reserve(stages_.size());
  report.stage_stats.reserve(stages_.size());
  for (const auto& stage : stages_) {
    report.stage_names.push_back(stage->name());
    report.stage_stats.push_back(stage->stats());
  }
  return report;
}

}  // namespace pw::dataflow
