#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

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

AsciiHistogram::AsciiHistogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
  CHECK_LT(lo, hi);
  CHECK_GT(bins, 0);
  buckets_.assign(static_cast<size_t>(bins), 0);
}

void AsciiHistogram::Add(double x) {
  ++count_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double frac = (x - lo_) / (hi_ - lo_);
  size_t i = static_cast<size_t>(frac * buckets_.size());
  if (i >= buckets_.size()) {
    i = buckets_.size() - 1;
  }
  ++buckets_[i];
}

double AsciiHistogram::BucketLow(int i) const {
  return lo_ + (hi_ - lo_) * i / static_cast<double>(buckets_.size());
}

double AsciiHistogram::BucketHigh(int i) const {
  return lo_ + (hi_ - lo_) * (i + 1) / static_cast<double>(buckets_.size());
}

std::string AsciiHistogram::Render(int max_bar_width) const {
  size_t peak = 1;
  for (size_t b : buckets_) {
    peak = std::max(peak, b);
  }
  std::string out;
  char line[256];
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const int bar = static_cast<int>(
        static_cast<double>(buckets_[i]) / static_cast<double>(peak) * max_bar_width);
    std::snprintf(line, sizeof(line), "[%10.3g, %10.3g) %8zu ", BucketLow(static_cast<int>(i)),
                  BucketHigh(static_cast<int>(i)), buckets_[i]);
    out += line;
    out.append(static_cast<size_t>(bar), '#');
    out += '\n';
  }
  return out;
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
