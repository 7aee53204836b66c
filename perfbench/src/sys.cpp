#include "sys.hpp"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdio>

#include "pw/obs/export.hpp"

#if defined(__linux__)
#include <sched.h>
#include <sys/prctl.h>

#include <cstring>
#endif

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

PinToCpu::PinToCpu(std::size_t slot) {
#if defined(__linux__)
  cpu_set_t previous;
  if (sched_getaffinity(0, sizeof(previous), &previous) != 0) {
    return;
  }
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &previous)) {
      allowed.push_back(cpu);
    }
  }
  if (allowed.empty()) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(allowed[slot % allowed.size()], &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    saved_.resize(sizeof(previous));
    std::memcpy(saved_.data(), &previous, sizeof(previous));
  }
#else
  (void)slot;
#endif
}

PinToCpu::~PinToCpu() {
#if defined(__linux__)
  if (!saved_.empty()) {
    cpu_set_t previous;
    std::memcpy(&previous, saved_.data(), sizeof(previous));
    sched_setaffinity(0, sizeof(previous), &previous);
  }
#endif
}

void tighten_timer_slack() {
#if defined(__linux__)
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

std::string metrics_json(const MetricMap& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) {
      out += ", ";
    }
    first = false;
    pw::obs::append_json_string(out, name);
    out += ": {\"value\": ";
    append_json_number(out, metric.value);
    out += ", \"unit\": ";
    pw::obs::append_json_string(out, metric.unit);
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace perfbench
