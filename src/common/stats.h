// Streaming summary statistics and percentile estimation for bench/eval output.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <map>
#include <vector>

namespace totoro {

// Accumulates samples and answers mean/stddev/min/max/percentile queries. Keeps all
// samples (evaluation-scale data sets are small enough); percentile queries sort lazily.
class Summary {
 public:
  void Add(double x);

  size_t count() const { return samples_.size(); }
  double sum() const { return sum_; }
  double Mean() const;
  double Stddev() const;
  double Min() const;
  double Max() const;
  // q in [0, 1]; linear interpolation between order statistics.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0.0;
};

// Counts exact integer values; used for e.g. "#masters hosted per node".
class IntCounter {
 public:
  void Add(long v) { ++counts_[v]; }
  const std::map<long, size_t>& counts() const { return counts_; }
  size_t Total() const;
  // Fraction of observations with value <= v.
  double CumulativeFraction(long v) const;

 private:
  std::map<long, size_t> counts_;
};

}  // namespace totoro

#endif  // SRC_COMMON_STATS_H_
