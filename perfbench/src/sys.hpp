#pragma once

// Process-level measurements (clocks, CPU time, peak RSS), CPU pinning and
// the small JSON
// writer the result line is printed with.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double now_s();

/// CPU seconds (user + sys) consumed by every thread of the process.
double process_cpu_s();

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Confines the calling thread, and every thread it starts while the guard
/// lives, to one CPU: the slot-th, modulo their count, of the CPUs it may
/// run on when the guard is made. Restores the thread's previous CPU set
/// when the guard is destroyed (Linux only; a no-op elsewhere).
class PinToCpu {
 public:
  explicit PinToCpu(std::size_t slot);
  ~PinToCpu();
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  std::vector<unsigned char> saved_;  ///< the previous cpu_set_t, as bytes
};

/// Shrinks the calling thread's timer slack so short sleeps and timed
/// waits wake close to their deadline (Linux only; a no-op elsewhere).
void tighten_timer_slack();

/// A metric value as printed: the number and its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Appends a number with all 17 significant digits; non-finite values,
/// which JSON cannot hold, are written as null.
void append_json_number(std::string& out, double value);

/// {"name": {"value": v, "unit": "u"}, ...}
std::string metrics_json(const MetricMap& metrics);

}  // namespace perfbench
