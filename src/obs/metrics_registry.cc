#include "src/obs/metrics_registry.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace totoro {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  CHECK(!bounds_.empty());
  CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  bucket_counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  bucket_counts_[static_cast<size_t>(it - bounds_.begin())] += 1;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += 1;
  sum_ += value;
}

double Histogram::bucket_upper_bound(size_t i) const {
  CHECK_LT(i, bucket_counts_.size());
  return i < bounds_.size() ? bounds_[i] : std::numeric_limits<double>::infinity();
}

double Histogram::ApproxQuantile(double q) const {
  CHECK_GE(q, 0.0);
  CHECK_LE(q, 1.0);
  if (count_ == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    if (bucket_counts_[i] == 0) {
      continue;
    }
    const double before = static_cast<double>(cumulative);
    cumulative += bucket_counts_[i];
    if (static_cast<double>(cumulative) < target) {
      continue;
    }
    // Interpolate within [lower, upper] of this bucket; the exact min/max clamp the
    // open-ended first and overflow buckets.
    const double lower = i == 0 ? min_ : std::max(min_, bounds_[i - 1]);
    const double upper = i < bounds_.size() ? std::min(max_, bounds_[i]) : max_;
    const double fraction =
        (target - before) / static_cast<double>(bucket_counts_[i]);
    return std::clamp(lower + fraction * (upper - lower), min_, max_);
  }
  return max_;
}

void Histogram::Reset() {
  std::fill(bucket_counts_.begin(), bucket_counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

void Histogram::MergeFrom(const Histogram& other) {
  CHECK(bounds_ == other.bounds_);
  if (other.count_ == 0) {
    return;
  }
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    bucket_counts_[i] += other.bucket_counts_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::vector<double> Histogram::DefaultLatencyBoundsMs() {
  std::vector<double> bounds;
  for (double b = 0.5; b <= 65536.0; b *= 2.0) {
    bounds.push_back(b);
  }
  return bounds;
}

std::vector<double> Histogram::HopCountBounds() {
  return {0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32};
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::ResetValues() {
  for (auto& [name, counter] : counters_) {
    (void)name;
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    (void)name;
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    (void)name;
    histogram->Reset();
  }
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, counter] : other.counters_) {
    GetCounter(name).Increment(counter->value());
  }
  for (const auto& [name, gauge] : other.gauges_) {
    GetGauge(name).Set(gauge->value());
  }
  for (const auto& [name, histogram] : other.histograms_) {
    GetHistogram(name, histogram->bounds()).MergeFrom(*histogram);
  }
}

MetricsRegistry& GlobalMetrics() {
  // One registry per THREAD (see GlobalTracer): parallel bench trials record into
  // their worker thread's registry, keeping hot-path recording lock-free. Hot-path
  // caches of series pointers must therefore be thread_local too. Destroyed when its
  // thread exits, like GlobalTracer().
  // LINT: thread-confined this IS the per-thread sink; folds run with workers parked.
  static thread_local MetricsRegistry registry;
  return registry;
}

}  // namespace totoro
