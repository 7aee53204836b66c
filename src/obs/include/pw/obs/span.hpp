#pragma once

#include <string>

#include "pw/obs/metrics.hpp"

namespace pw::obs {

/// RAII wall-clock tracer. Construction starts the clock; destruction
/// records a SpanRecord (and duration histogram sample) into the registry.
///
/// Spans nest per thread: a Span created while another is live on the same
/// thread becomes its child, and its recorded path is the slash-joined
/// chain ("solve/host_overlap/gather"). Each thread keeps its own nesting
/// stack, so concurrent pipeline stages can trace into one shared registry
/// without interleaving each other's paths (the registry itself is
/// thread-safe).
///
/// Not copyable or movable: a Span must be destroyed on the thread and in
/// the scope that created it (enforced LIFO, like a lock guard).
class Span {
 public:
  Span(MetricsRegistry& registry, std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  MetricsRegistry* registry_;
  std::string path_;
  double start_s_ = 0.0;
  Span* parent_ = nullptr;
};

}  // namespace pw::obs
