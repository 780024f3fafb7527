#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace totoro {

void Summary::Add(double x) {
  samples_.push_back(x);
  sum_ += x;
  sorted_valid_ = false;
}

double Summary::Mean() const { return samples_.empty() ? 0.0 : sum_ / samples_.size(); }

double Summary::Stddev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  const double m = Mean();
  double acc = 0.0;
  for (double x : samples_) {
    acc += (x - m) * (x - m);
  }
  return std::sqrt(acc / (samples_.size() - 1));
}

double Summary::Min() const {
  CHECK(!samples_.empty());
  EnsureSorted();
  return sorted_.front();
}

double Summary::Max() const {
  CHECK(!samples_.empty());
  EnsureSorted();
  return sorted_.back();
}

double Summary::Percentile(double q) const {
  CHECK(!samples_.empty());
  CHECK_GE(q, 0.0);
  CHECK_LE(q, 1.0);
  EnsureSorted();
  const double pos = q * (sorted_.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= sorted_.size()) {
    return sorted_.back();
  }
  const double frac = pos - static_cast<double>(i);
  return sorted_[i] * (1.0 - frac) + sorted_[i + 1] * frac;
}

void Summary::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

size_t IntCounter::Total() const {
  size_t total = 0;
  for (const auto& [value, n] : counts_) {
    (void)value;
    total += n;
  }
  return total;
}

double IntCounter::CumulativeFraction(long v) const {
  const size_t total = Total();
  if (total == 0) {
    return 0.0;
  }
  size_t at_or_below = 0;
  for (const auto& [value, n] : counts_) {
    if (value <= v) {
      at_or_below += n;
    }
  }
  return static_cast<double>(at_or_below) / static_cast<double>(total);
}

}  // namespace totoro
