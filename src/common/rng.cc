#include "src/common/rng.h"

#include <cmath>

#include "src/common/check.h"

namespace totoro {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline uint64_t Rotl64(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl64(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl64(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t n) {
  CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) {
      return r % n;
    }
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(span == 0 ? Next() : NextBelow(span));
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  while (u1 <= 1e-300) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) { return mean + stddev * Gaussian(); }

double Rng::Exponential(double mean) {
  CHECK_GT(mean, 0.0);
  double u = NextDouble();
  while (u <= 1e-300) {
    u = NextDouble();
  }
  return -mean * std::log(u);
}

uint64_t Rng::Geometric(double p) {
  CHECK_GT(p, 0.0);
  CHECK_LE(p, 1.0);
  if (p >= 1.0) {
    return 1;
  }
  double u = NextDouble();
  while (u <= 1e-300) {
    u = NextDouble();
  }
  // Inverse CDF of the {1,2,...} geometric distribution.
  const double k = std::ceil(std::log(u) / std::log(1.0 - p));
  return k < 1.0 ? 1 : static_cast<uint64_t>(k);
}

std::vector<double> Rng::Dirichlet(double alpha, int k) {
  CHECK_GT(alpha, 0.0);
  CHECK_GT(k, 0);
  // Marsaglia-Tsang gamma sampling; Dirichlet = normalized gammas.
  auto sample_gamma = [this](double shape) {
    if (shape < 1.0) {
      // Boost via Gamma(shape+1) and a uniform power.
      double u = NextDouble();
      while (u <= 1e-300) {
        u = NextDouble();
      }
      const double boost = std::pow(u, 1.0 / shape);
      shape += 1.0;
      const double d = shape - 1.0 / 3.0;
      const double c = 1.0 / std::sqrt(9.0 * d);
      for (;;) {
        double x = Gaussian();
        double v = 1.0 + c * x;
        if (v <= 0) {
          continue;
        }
        v = v * v * v;
        const double u2 = NextDouble();
        if (u2 < 1.0 - 0.0331 * x * x * x * x ||
            std::log(u2 + 1e-300) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
          return d * v * boost;
        }
      }
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = Gaussian();
      double v = 1.0 + c * x;
      if (v <= 0) {
        continue;
      }
      v = v * v * v;
      const double u = NextDouble();
      if (u < 1.0 - 0.0331 * x * x * x * x ||
          std::log(u + 1e-300) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return d * v;
      }
    }
  };
  std::vector<double> out(static_cast<size_t>(k));
  double sum = 0.0;
  for (auto& v : out) {
    v = sample_gamma(alpha);
    sum += v;
  }
  if (sum <= 0.0) {
    // Degenerate draw; fall back to uniform.
    for (auto& v : out) {
      v = 1.0 / k;
    }
    return out;
  }
  for (auto& v : out) {
    v /= sum;
  }
  return out;
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    CHECK_GE(w, 0.0);
    total += w;
  }
  CHECK_GT(total, 0.0);
  double r = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

}  // namespace totoro
