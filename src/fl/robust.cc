#include "src/fl/robust.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/fl/aggregation.h"

namespace totoro {
namespace {

double DeltaNorm(std::span<const float> weights, std::span<const float> reference) {
  double sum = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double d = static_cast<double>(weights[i]) - static_cast<double>(reference[i]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace

const char* RobustAggregationName(RobustAggregation rule) {
  switch (rule) {
    case RobustAggregation::kNone:
      return "fedavg";
    case RobustAggregation::kCoordinateMedian:
      return "coordinate_median";
    case RobustAggregation::kTrimmedMean:
      return "trimmed_mean";
    case RobustAggregation::kNormClip:
      return "norm_clip";
  }
  return "unknown";
}

bool AllFinite(std::span<const float> weights) {
  for (const float w : weights) {
    if (!std::isfinite(w)) {
      return false;
    }
  }
  return true;
}

std::vector<float> CoordinateMedian(const std::vector<WeightedUpdate>& updates) {
  CHECK(!updates.empty());
  const size_t dim = updates[0].weights.size();
  const size_t n = updates.size();
  std::vector<float> out(dim);
  std::vector<float> column(n);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t u = 0; u < n; ++u) {
      CHECK_EQ(updates[u].weights.size(), dim);
      column[u] = updates[u].weights[i];
    }
    std::sort(column.begin(), column.end());
    if (n % 2 == 1) {
      out[i] = column[n / 2];
    } else {
      // Midpoint of the two central values, computed in double so the result does not
      // depend on which of the two came first.
      out[i] = static_cast<float>(
          (static_cast<double>(column[n / 2 - 1]) + static_cast<double>(column[n / 2])) /
          2.0);
    }
  }
  return out;
}

std::vector<float> TrimmedMean(const std::vector<WeightedUpdate>& updates,
                               double trim_fraction) {
  CHECK(!updates.empty());
  CHECK_GE(trim_fraction, 0.0);
  CHECK_LT(trim_fraction, 0.5);
  const size_t dim = updates[0].weights.size();
  const size_t n = updates.size();
  size_t trim = static_cast<size_t>(std::floor(trim_fraction * static_cast<double>(n)));
  if (2 * trim >= n) {
    trim = (n - 1) / 2;  // Keep at least one value per coordinate.
  }
  std::vector<float> out(dim);
  std::vector<float> column(n);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t u = 0; u < n; ++u) {
      CHECK_EQ(updates[u].weights.size(), dim);
      column[u] = updates[u].weights[i];
    }
    std::sort(column.begin(), column.end());
    double acc = 0.0;
    for (size_t u = trim; u < n - trim; ++u) {
      acc += static_cast<double>(column[u]);
    }
    out[i] = static_cast<float>(acc / static_cast<double>(n - 2 * trim));
  }
  return out;
}

std::vector<float> NormClippedMean(const std::vector<WeightedUpdate>& updates,
                                   std::span<const float> reference, double clip_norm,
                                   size_t* clipped_out) {
  CHECK(!updates.empty());
  const size_t dim = updates[0].weights.size();
  CHECK_EQ(reference.size(), dim);
  std::vector<double> norms(updates.size());
  for (size_t u = 0; u < updates.size(); ++u) {
    CHECK_EQ(updates[u].weights.size(), dim);
    norms[u] = DeltaNorm(updates[u].weights, reference);
  }
  double budget = clip_norm;
  if (budget <= 0.0) {
    // Auto budget: median of the round's delta norms — a majority of honest
    // contributors keeps it at honest scale no matter how large the attackers go.
    std::vector<double> sorted = norms;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    budget = n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
  }
  size_t clipped = 0;
  std::vector<WeightedUpdate> bounded;
  bounded.reserve(updates.size());
  for (size_t u = 0; u < updates.size(); ++u) {
    if (norms[u] <= budget || norms[u] == 0.0) {
      bounded.push_back(updates[u]);
      continue;
    }
    ++clipped;
    const double scale = budget / norms[u];
    WeightedUpdate shrunk;
    shrunk.sample_weight = updates[u].sample_weight;
    shrunk.weights.resize(dim);
    for (size_t i = 0; i < dim; ++i) {
      const double d =
          static_cast<double>(updates[u].weights[i]) - static_cast<double>(reference[i]);
      shrunk.weights[i] = static_cast<float>(static_cast<double>(reference[i]) + d * scale);
    }
    bounded.push_back(std::move(shrunk));
  }
  if (clipped_out != nullptr) {
    *clipped_out = clipped;
  }
  // FedAvg of the clipped updates, so a generous budget reproduces FedAvg bit for bit.
  return FederatedAverage(bounded);
}

}  // namespace totoro
