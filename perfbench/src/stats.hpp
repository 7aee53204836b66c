#pragma once

// Metric math shared by the workloads: percentile selection, open-loop
// goodput and failure accounting, the serve queue-wait arithmetic and the
// computed traffic of each kernel. Header-only so tests/test_stats.cpp can
// check it without running a workload.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "pw/api/solver.hpp"
#include "pw/stencil/spec.hpp"

namespace perfbench {

/// One percentile by the nearest-rank rule, with the sample count behind
/// it: `beyond` samples lie strictly above the selected rank, so a tail
/// percentile is only trustworthy when `beyond` >= 10.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
/// q * n samples at or below it. Empty input gives value 0, samples 0.
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) {
    return p;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps q * n that is integral in exact arithmetic (0.99 *
  // 1000) from rounding up a rank.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

/// The usual median: the middle sample, or the mean of the two middle
/// samples for an even count. 0 for empty input.
inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) {
    return values[mid];
  }
  return 0.5 * (values[mid - 1] + values[mid]);
}

/// A percentile taken per time window, then the median over windows: one
/// window disturbed by the host (a burst of steal time) cannot move it.
struct WindowedPercentile {
  double value = 0.0;
  std::size_t windows = 0;
  std::size_t samples = 0;
  std::size_t min_beyond = 0;  ///< fewest samples beyond q in any window
};

/// `samples` are (time, value) pairs. Windows are `window_s` long from the
/// first sample's time; a partial last window is folded into the one before.
inline WindowedPercentile windowed_percentile(
    std::vector<std::pair<double, double>> samples, double window_s,
    double q) {
  WindowedPercentile out;
  out.samples = samples.size();
  if (samples.empty() || !(window_s > 0.0)) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const double t0 = samples.front().first;
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>((samples.back().first - t0) / window_s));
  std::vector<std::vector<double>> buckets(windows);
  for (const auto& [t, value] : samples) {
    const auto w = static_cast<std::size_t>((t - t0) / window_s);
    buckets[std::min(w, windows - 1)].push_back(value);
  }
  std::vector<double> per_window;
  for (std::vector<double>& bucket : buckets) {
    if (bucket.empty()) {
      continue;
    }
    const Percentile p = percentile(std::move(bucket), q);
    out.min_beyond =
        per_window.empty() ? p.beyond : std::min(out.min_beyond, p.beyond);
    per_window.push_back(p.value);
  }
  out.windows = per_window.size();
  out.value = median(std::move(per_window));
  return out;
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

/// One open-loop request as the benchmark saw it. `ok` is false for a typed
/// error (shed, refused, deadline) and for a result that failed its output
/// check; `observed_s` is meaningful only when the request completed.
struct Completion {
  double due_s = 0.0;
  double observed_s = 0.0;
  bool ok = false;
};

struct GoodputTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t good = 0;  ///< ok and observed within the deadline of due
  double goodput_rps = 0.0;
};

/// Goodput of an open-loop schedule: ok completions observed within
/// `deadline_s` of their due time, per second of the offered schedule.
/// Failed requests count as misses and as failures.
inline GoodputTally goodput(const std::vector<Completion>& completions,
                            double deadline_s, double schedule_s) {
  GoodputTally tally;
  tally.attempted = completions.size();
  for (const Completion& c : completions) {
    if (!c.ok) {
      ++tally.failed;
    } else if (c.observed_s - c.due_s <= deadline_s) {
      ++tally.good;
    }
  }
  tally.goodput_rps =
      schedule_s > 0.0 ? static_cast<double>(tally.good) / schedule_s : 0.0;
  return tally;
}

/// Timing of one serve request, all in seconds: latency runs from the due
/// time to the observed completion; lag is how late the generator called
/// submit; submit is the time spent inside submit; solve is the result's
/// SolveResult::seconds.
struct ServeTiming {
  double latency_s = 0.0;
  double lag_s = 0.0;
  double submit_s = 0.0;
  double solve_s = 0.0;
  bool cached = false;
  bool ok = false;
};

/// Time the request spent queued and being dispatched: latency less the
/// generator lag, the submit call and the solve. Only defined for ok,
/// uncached results: a cached result carries the `seconds` of the solve
/// that first computed it, which this request never waited for.
inline std::optional<double> queue_wait_s(const ServeTiming& t) {
  if (!t.ok || t.cached) {
    return std::nullopt;
  }
  return t.latency_s - t.lag_s - t.submit_s - t.solve_s;
}

/// The generator's own lateness for each request of a schedule, in
/// schedule order: how much later it called submit than it could have, had
/// it woken exactly when each request was due, given how long each earlier
/// submit kept it busy. The rest of its lag, time spent inside earlier
/// submits, is the service's doing and stays in the latency, so a stall in
/// submit is charged to every request it delays.
inline std::vector<double> generator_overshoot_s(
    const std::vector<double>& due_s, const std::vector<ServeTiming>& timings) {
  std::vector<double> overshoot(timings.size());
  double free_s = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const double could_send_s = std::max(due_s[i], free_s);
    overshoot[i] =
        std::max(0.0, due_s[i] + timings[i].lag_s - could_send_s);
    free_s = could_send_s + timings[i].submit_s;
  }
  return overshoot;
}

/// Computed (not measured) compulsory traffic of one solve: every sweep
/// reads each input field once and writes each output field once, 8 bytes
/// per value. Cache misses and halo re-reads are not counted.
struct KernelTraffic {
  double bytes_per_cell = 0.0;  ///< per interior cell, whole solve
  double flops_per_byte = 0.0;  ///< api::total_flops / computed bytes
};

inline KernelTraffic kernel_traffic(const pw::api::KernelSpec& kernel,
                                    const pw::grid::GridDims& dims) {
  const pw::stencil::StencilSpec& spec =
      *pw::stencil::find_stencil(pw::api::to_string(kernel.kernel()));
  std::size_t sweeps = 1;
  if (const auto* poisson = kernel.get_if<pw::api::PoissonOptions>()) {
    sweeps = poisson->iterations;
  }
  KernelTraffic traffic;
  traffic.bytes_per_cell = static_cast<double>(
      (spec.fields_in + spec.fields_out) * sizeof(double) * sweeps);
  const double bytes =
      traffic.bytes_per_cell * static_cast<double>(dims.cells());
  traffic.flops_per_byte =
      bytes > 0.0
          ? static_cast<double>(pw::api::total_flops(kernel, dims)) / bytes
          : 0.0;
  return traffic;
}

}  // namespace perfbench
