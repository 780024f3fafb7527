// Deterministic pseudo-random number generation.
//
// Every stochastic component in the repository (topology sampling, link success draws,
// dataset synthesis, churn injection) owns an Rng seeded explicitly, so that every test
// and bench is reproducible bit-for-bit. The core generator is xoshiro256**, seeded via
// SplitMix64 as its authors recommend.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace totoro {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over the full 64-bit range.
  uint64_t Next() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n);

  // Advances the generator exactly as NextBelow(n) would, without computing the value.
  void SkipBelow(uint64_t n) {
    while (!Accepts(Next(), n)) {
    }
  }

  // Uniform in [lo, hi], inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  // True with probability p.
  bool Bernoulli(double p);

  // Standard normal via Box-Muller (cached second value).
  double Gaussian();
  double Gaussian(double mean, double stddev);

  // Exponential with the given mean (mean must be > 0).
  double Exponential(double mean);

  // Geometric: number of Bernoulli(p) trials up to and including the first success
  // (support {1, 2, ...}, mean 1/p). Matches the paper's link-delay model.
  uint64_t Geometric(double p);

  // Symmetric Dirichlet(alpha) over k categories; used by the non-IID data partitioner.
  std::vector<double> Dirichlet(double alpha, int k);

  // Samples an index in [0, weights.size()) proportionally to `weights` (all >= 0, with
  // positive sum).
  std::size_t WeightedIndex(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(NextBelow(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  // NextBelow's rejection rule, which removes modulo bias: a draw r is kept unless it is
  // below (2^64 - n) % n. That threshold is below n, so it is only computed for r < n.
  static bool Accepts(uint64_t r, uint64_t n) { return r >= n || r >= (0 - n) % n; }

  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace totoro

#endif  // SRC_COMMON_RNG_H_
