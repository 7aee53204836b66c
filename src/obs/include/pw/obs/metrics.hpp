#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pw::obs {

/// Quantile summary of one histogram's samples, computed at snapshot time
/// (samples are kept raw so quantiles are exact, not bucketed).
struct HistogramSummary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// One completed trace span. `path` is the slash-joined nesting path
/// ("solve/host/chunk/write"); times are seconds relative to the owning
/// registry's epoch. Spans recorded from a modelled timeline (rather than
/// wall clock) carry `modelled = true`.
struct SpanRecord {
  std::string path;
  double start_s = 0.0;
  double duration_s = 0.0;
  std::uint64_t thread = 0;  ///< hashed thread id (0 for modelled spans)
  bool modelled = false;
};

/// Immutable copy of a registry's state, safe to keep after the registry is
/// gone. This is what exporters consume and what SolveResult carries.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;
  std::vector<SpanRecord> spans;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           spans.empty();
  }
};

/// Computes an exact quantile (q in [0,1]) by linear interpolation over a
/// sorted copy of `samples`; 0 for an empty set. Exposed for tests.
double quantile(std::vector<double> samples, double q);

/// Thread-safe metrics sink shared by every instrumented layer (dataflow
/// simulator, OCL host driver, kernels, perf model). Names are dotted
/// ("host.bytes_written"); span paths are slash-joined. All operations are
/// safe to call concurrently from pipeline stage threads.
class MetricsRegistry {
 public:
  MetricsRegistry() : epoch_(std::chrono::steady_clock::now()) {}

  // Counters: monotonically increasing event counts.
  void counter_add(std::string_view name, std::uint64_t delta = 1);
  std::uint64_t counter(std::string_view name) const;  ///< 0 when absent

  // Gauges: last-write-wins point values (GFLOPS, % of peak, ...).
  void gauge_set(std::string_view name, double value);
  std::optional<double> gauge(std::string_view name) const;

  // Histograms: raw samples summarised with p50/p95/p99/p999 at snapshot
  // time.
  void observe(std::string_view name, double sample);
  HistogramSummary histogram(std::string_view name) const;  ///< zeroed when absent

  /// Records a completed span. Also feeds the span's duration into the
  /// histogram of the same name, so repeated spans ("host/chunk/write" once
  /// per chunk) aggregate into quantiles for free.
  void record_span(std::string path, double start_s, double duration_s,
                   std::uint64_t thread = 0, bool modelled = false);

  /// Seconds since this registry was constructed (the span time origin).
  double now_s() const;

  RegistrySnapshot snapshot() const;
  void clear();

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, std::vector<double>, std::less<>> histograms_;
  std::vector<SpanRecord> spans_;
};

}  // namespace pw::obs
