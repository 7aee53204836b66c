#include "tracer.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "sys.hpp"

namespace perfbench {

namespace {

thread_local Span* t_innermost = nullptr;

}  // namespace

void Tracer::record(SpanRecord span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

Span::Span(Tracer* tracer, std::string_view layer, std::string_view name,
           std::uint64_t request)
    : Span(tracer, layer, name,
           t_innermost != nullptr ? t_innermost->id() : 0, request) {}

Span::Span(Tracer* tracer, std::string_view layer, std::string_view name,
           std::uint64_t parent, std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  id_ = tracer_->next_id();
  parent_ = parent;
  request_ = request;
  layer_ = layer;
  name_ = name;
  outer_ = t_innermost;
  t_innermost = this;
  start_s_ = now_s();
}

Span::~Span() {
  if (tracer_ == nullptr) {
    return;
  }
  const double end = now_s();
  t_innermost = outer_;
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.request = request_;
  record.layer = std::move(layer_);
  record.name = std::move(name_);
  record.start_s = start_s_;
  record.end_s = end;
  record.failed = failed_;
  tracer_->record(std::move(record));
}

double covered_seconds(std::vector<std::pair<double, double>> intervals,
                       double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

namespace {

std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
children_by_parent(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_s, span.end_s);
    }
  }
  return children;
}

double self_seconds(
    const SpanRecord& span,
    const std::unordered_map<std::uint64_t,
                             std::vector<std::pair<double, double>>>&
        children) {
  const double duration = span.end_s - span.start_s;
  const auto it = children.find(span.id);
  if (it == children.end()) {
    return duration;
  }
  return duration - covered_seconds(it->second, span.start_s, span.end_s);
}

bool is_timed_phase(const SpanRecord& span) {
  constexpr std::string_view kSuffix = ".timed";
  return span.layer == "bench" && span.name.size() > kSuffix.size() &&
         span.name.compare(span.name.size() - kSuffix.size(), kSuffix.size(),
                           kSuffix) == 0;
}

}  // namespace

std::map<std::string, LayerSummary> summarise_layers(
    const std::vector<SpanRecord>& spans) {
  const auto children = children_by_parent(spans);
  std::map<std::string, LayerSummary> layers;
  for (const SpanRecord& span : spans) {
    LayerSummary& layer = layers[span.layer];
    if (span.wait) {
      layer.wait_s += span.end_s - span.start_s;
    } else {
      ++layer.count;
      layer.self_s += self_seconds(span, children);
    }
    layer.failures += span.failed ? 1 : 0;
  }
  return layers;
}

std::map<std::string, double> unattributed_shares(
    const std::vector<SpanRecord>& spans) {
  const auto children = children_by_parent(spans);
  std::map<std::string, double> shares;
  for (const SpanRecord& span : spans) {
    if (!is_timed_phase(span)) {
      continue;
    }
    const double duration = span.end_s - span.start_s;
    shares[span.name] =
        duration > 0.0 ? self_seconds(span, children) / duration : 0.0;
  }
  return shares;
}

}  // namespace perfbench
