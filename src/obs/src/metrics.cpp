#include "pw/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace pw::obs {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const double fraction = position - static_cast<double>(lower);
  if (lower + 1 >= samples.size()) {
    return samples.back();
  }
  return samples[lower] + fraction * (samples[lower + 1] - samples[lower]);
}

namespace {

HistogramSummary summarise(const std::vector<double>& samples) {
  HistogramSummary summary;
  summary.count = samples.size();
  if (samples.empty()) {
    return summary;
  }
  summary.min = samples.front();
  summary.max = samples.front();
  for (double sample : samples) {
    summary.min = std::min(summary.min, sample);
    summary.max = std::max(summary.max, sample);
    summary.sum += sample;
  }
  summary.mean = summary.sum / static_cast<double>(samples.size());
  summary.p50 = quantile(samples, 0.50);
  summary.p95 = quantile(samples, 0.95);
  summary.p99 = quantile(samples, 0.99);
  summary.p999 = quantile(samples, 0.999);
  return summary;
}

}  // namespace

void MetricsRegistry::counter_add(std::string_view name, std::uint64_t delta) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::gauge_set(std::string_view name, double value) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

std::optional<double> MetricsRegistry::gauge(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void MetricsRegistry::observe(std::string_view name, double sample) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histograms_.emplace(std::string(name), std::vector<double>{sample});
  } else {
    it->second.push_back(sample);
  }
}

HistogramSummary MetricsRegistry::histogram(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSummary{} : summarise(it->second);
}

void MetricsRegistry::record_span(std::string path, double start_s,
                                  double duration_s, std::uint64_t thread,
                                  bool modelled) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(path);
  if (it == histograms_.end()) {
    histograms_.emplace(path, std::vector<double>{duration_s});
  } else {
    it->second.push_back(duration_s);
  }
  spans_.push_back(
      SpanRecord{std::move(path), start_s, duration_s, thread, modelled});
}

double MetricsRegistry::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  RegistrySnapshot snap;
  for (const auto& [name, value] : counters_) {
    snap.counters.emplace(name, value);
  }
  for (const auto& [name, value] : gauges_) {
    snap.gauges.emplace(name, value);
  }
  for (const auto& [name, samples] : histograms_) {
    snap.histograms.emplace(name, summarise(samples));
  }
  snap.spans = spans_;
  return snap;
}

void MetricsRegistry::clear() {
  std::lock_guard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  spans_.clear();
}

}  // namespace pw::obs
