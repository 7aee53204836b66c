#pragma once

// Benchmark-side tracing: spans recorded around each call the benchmark
// makes into a layer's public function, kept in memory and written out
// when the run ends. Untraced runs pass a null Tracer and every Span is a
// no-op, so end-to-end numbers carry no tracing cost.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One completed span. Times are seconds on perfbench::now_s().
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0: no parent
  std::uint64_t request = 0;  ///< 0: not tied to one request
  std::string layer;          ///< module the call enters ("api", "serve", ...)
  std::string name;           ///< the public function called
  double start_s = 0.0;
  double end_s = 0.0;
  /// The benchmark waited for asynchronous work of the layer (a serve
  /// request in flight) rather than executing inside it.
  bool wait = false;
  bool failed = false;
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  std::uint64_t next_id() { return next_id_.fetch_add(1); }
  void record(SpanRecord span);
  std::vector<SpanRecord> spans() const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call. Spans nest per thread: without an explicit
/// parent, the innermost live span of the calling thread is the parent.
/// With a null tracer the span does nothing.
class Span {
 public:
  Span(Tracer* tracer, std::string_view layer, std::string_view name,
       std::uint64_t request = 0);
  /// Explicit parent, for spans whose cause lives on another thread.
  Span(Tracer* tracer, std::string_view layer, std::string_view name,
       std::uint64_t parent, std::uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void fail() { failed_ = true; }
  /// 0 when tracing is off.
  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::string layer_;
  std::string name_;
  double start_s_ = 0.0;
  bool failed_ = false;
  Span* outer_ = nullptr;
};

/// Per-layer totals over a set of spans: calls, self (busy) time — a
/// span's duration less the part its children cover — time spent waiting
/// on the layer's asynchronous work, and failed calls.
struct LayerSummary {
  std::size_t count = 0;
  double self_s = 0.0;
  double wait_s = 0.0;
  std::size_t failures = 0;
};
std::map<std::string, LayerSummary> summarise_layers(
    const std::vector<SpanRecord>& spans);

/// For every span named "<workload>.timed" (a timed phase), the share of
/// its interval that none of its child spans covers.
std::map<std::string, double> unattributed_shares(
    const std::vector<SpanRecord>& spans);

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered_seconds(std::vector<std::pair<double, double>> intervals,
                       double lo, double hi);

}  // namespace perfbench
