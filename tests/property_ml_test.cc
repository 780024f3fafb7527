// Property-style tests of the ML substrate: numerical gradient checking of backprop,
// serialization fuzzing, aggregation algebra, and partitioner invariants, swept over
// parameter grids with TEST_P.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/fl/aggregation.h"
#include "src/ml/model.h"
#include "src/ml/serialize.h"

namespace totoro {
namespace {

// ---------- Numerical gradient check ----------
//
// With a one-example shard, batch_size 1 and a single local step, SGD computes
// w' = w - lr * g, so g = (w - w') / lr recovers the analytic gradient of the
// cross-entropy loss on that example — which must match the numerical gradient.

struct GradCheckParams {
  int input_dim;
  int hidden_dim;
  int num_classes;
  uint64_t seed;
};

class GradientCheckTest : public ::testing::TestWithParam<GradCheckParams> {};

TEST_P(GradientCheckTest, BackpropMatchesNumericalGradient) {
  const auto p = GetParam();
  Rng rng(p.seed);
  Dataset shard(p.input_dim, p.num_classes);
  Example example;
  example.label = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(p.num_classes)));
  example.x.resize(static_cast<size_t>(p.input_dim));
  for (auto& v : example.x) {
    v = static_cast<float>(rng.Gaussian());
  }
  shard.Add(example);

  auto model = p.hidden_dim > 0
                   ? MakeMlp("m", p.input_dim, p.hidden_dim, p.num_classes, p.seed)
                   : MakeSoftmaxRegression("m", p.input_dim, p.num_classes, p.seed);
  const std::vector<float> w0 = model->GetWeights();

  TrainConfig config;
  config.learning_rate = 1e-3f;
  config.batch_size = 1;
  config.local_steps = 1;
  Rng train_rng(p.seed + 1);
  model->TrainLocal(shard, config, train_rng);
  const std::vector<float> w1 = model->GetWeights();

  // Analytic gradient recovered from the SGD step.
  std::vector<double> analytic(w0.size());
  for (size_t i = 0; i < w0.size(); ++i) {
    analytic[i] = (static_cast<double>(w0[i]) - w1[i]) / config.learning_rate;
  }

  // Numerical gradient via central differences on a sample of coordinates (checking
  // every coordinate of the larger nets is slow and adds nothing).
  auto loss_at = [&](const std::vector<float>& w) {
    model->SetWeights(w);
    return model->Loss(shard);
  };
  Rng pick(p.seed + 2);
  const size_t checks = std::min<size_t>(w0.size(), 40);
  double max_rel_err = 0.0;
  for (size_t c = 0; c < checks; ++c) {
    const size_t i = static_cast<size_t>(pick.NextBelow(w0.size()));
    const double eps = 1e-3;
    std::vector<float> wp = w0;
    wp[i] += static_cast<float>(eps);
    const double lp = loss_at(wp);
    wp[i] = w0[i] - static_cast<float>(eps);
    const double lm = loss_at(wp);
    const double numeric = (lp - lm) / (2 * eps);
    const double denom = std::max(1.0, std::abs(numeric) + std::abs(analytic[i]));
    max_rel_err = std::max(max_rel_err, std::abs(numeric - analytic[i]) / denom);
  }
  // float32 weights + finite differences: ~1e-2 relative agreement is the right bar.
  EXPECT_LT(max_rel_err, 2e-2) << "input=" << p.input_dim << " hidden=" << p.hidden_dim
                               << " classes=" << p.num_classes;
}

INSTANTIATE_TEST_SUITE_P(Architectures, GradientCheckTest,
                         ::testing::Values(GradCheckParams{8, 0, 3, 1},
                                           GradCheckParams{8, 16, 3, 2},
                                           GradCheckParams{16, 8, 5, 3},
                                           GradCheckParams{24, 32, 10, 4},
                                           GradCheckParams{4, 4, 2, 5}));

// ---------- Serialization fuzz ----------

class SerializeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeFuzzTest, Float32RoundTripsExactly) {
  Rng rng(GetParam());
  const size_t n = 1 + rng.NextBelow(5000);
  std::vector<float> w(n);
  for (auto& v : w) {
    // Mix of scales including subnormals-ish and huge values.
    const int kind = static_cast<int>(rng.NextBelow(4));
    switch (kind) {
      case 0:
        v = static_cast<float>(rng.Gaussian());
        break;
      case 1:
        v = static_cast<float>(rng.Gaussian() * 1e20);
        break;
      case 2:
        v = static_cast<float>(rng.Gaussian() * 1e-20);
        break;
      default:
        v = 0.0f;
    }
  }
  EXPECT_EQ(DecodeFloat32(EncodeFloat32(w)), w);
}

TEST_P(SerializeFuzzTest, Int8ErrorBoundedByQuantizationStep) {
  Rng rng(GetParam() ^ 0xABCD);
  const size_t n = 1 + rng.NextBelow(2000);
  std::vector<float> w(n);
  float max_abs = 0.0f;
  for (auto& v : w) {
    v = static_cast<float>(rng.Gaussian(0.0, rng.Uniform(0.1, 10.0)));
    max_abs = std::max(max_abs, std::abs(v));
  }
  const auto decoded = DecodeInt8(EncodeInt8(w));
  ASSERT_EQ(decoded.size(), n);
  const float step = max_abs > 0 ? max_abs / 127.0f : 1.0f;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(decoded[i], w[i], step * 0.51f);
  }
}

TEST_P(SerializeFuzzTest, Int8SurvivesNonFiniteInputsWithBoundedError) {
  // NaN/Inf must not poison the quantization scale: scale derives from finite values
  // only, NaN decodes to 0, +/-Inf saturates to +/-127 steps, and every finite value
  // keeps the usual half-step error bound.
  Rng rng(GetParam() ^ 0x7E57);
  const size_t n = 8 + rng.NextBelow(1000);
  std::vector<float> w(n);
  float max_abs = 0.0f;
  for (auto& v : w) {
    v = static_cast<float>(rng.Gaussian(0.0, rng.Uniform(0.1, 5.0)));
    max_abs = std::max(max_abs, std::abs(v));
  }
  // Inject non-finite values at random positions (keeping at least one finite).
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<size_t> poison;
  for (size_t k = 0; k < 1 + rng.NextBelow(n / 4); ++k) {
    poison.push_back(rng.NextBelow(n - 1));  // Index n-1 stays finite.
  }
  for (size_t idx : poison) {
    switch (rng.NextBelow(3)) {
      case 0: w[idx] = nan; break;
      case 1: w[idx] = inf; break;
      default: w[idx] = -inf;
    }
  }
  max_abs = 0.0f;
  for (float v : w) {
    if (std::isfinite(v)) {
      max_abs = std::max(max_abs, std::abs(v));
    }
  }

  const auto decoded = DecodeInt8(EncodeInt8(w));
  ASSERT_EQ(decoded.size(), n);
  const float step = max_abs > 0 ? max_abs / 127.0f : 1.0f;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(std::isfinite(decoded[i])) << "non-finite leak at " << i;
    if (std::isnan(w[i])) {
      EXPECT_EQ(decoded[i], 0.0f);
    } else if (std::isinf(w[i])) {
      EXPECT_EQ(decoded[i], (w[i] > 0 ? 1.0f : -1.0f) * step * 127.0f);
    } else {
      EXPECT_NEAR(decoded[i], w[i], step * 0.51f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzzTest, ::testing::Range<uint64_t>(100, 110));

// ---------- Aggregation algebra ----------

class FedAvgAlgebraTest : public ::testing::TestWithParam<uint64_t> {};

std::vector<WeightedUpdate> RandomUpdates(Rng& rng, size_t count, size_t dim) {
  std::vector<WeightedUpdate> updates(count);
  for (auto& u : updates) {
    u.weights.resize(dim);
    for (auto& v : u.weights) {
      v = static_cast<float>(rng.Gaussian());
    }
    u.sample_weight = rng.Uniform(0.5, 20.0);
  }
  return updates;
}

TEST_P(FedAvgAlgebraTest, PermutationInvariant) {
  Rng rng(GetParam());
  auto updates = RandomUpdates(rng, 2 + rng.NextBelow(20), 16);
  const auto base = FederatedAverage(updates);
  rng.Shuffle(updates);
  const auto shuffled = FederatedAverage(updates);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(base[i], shuffled[i], 1e-5f);
  }
}

TEST_P(FedAvgAlgebraTest, ArbitraryGroupingEqualsFlat) {
  // Split the update set into random groups; average each group (weighted) and then
  // average the group results carrying group weights — must equal the flat average.
  // This is exactly the invariant that makes in-network tree aggregation correct for
  // ANY tree shape.
  Rng rng(GetParam() ^ 0x5A5A);
  const auto updates = RandomUpdates(rng, 3 + rng.NextBelow(24), 12);
  const auto flat = FederatedAverage(updates);

  std::vector<WeightedUpdate> group_results;
  size_t start = 0;
  while (start < updates.size()) {
    const size_t len = 1 + rng.NextBelow(4);
    std::vector<WeightedUpdate> group(
        updates.begin() + static_cast<long>(start),
        updates.begin() + static_cast<long>(std::min(start + len, updates.size())));
    WeightedUpdate merged;
    merged.weights = FederatedAverage(group);
    merged.sample_weight = 0.0;
    for (const auto& u : group) {
      merged.sample_weight += u.sample_weight;
    }
    group_results.push_back(std::move(merged));
    start += len;
  }
  const auto grouped = FederatedAverage(group_results);
  for (size_t i = 0; i < flat.size(); ++i) {
    EXPECT_NEAR(flat[i], grouped[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedAvgAlgebraTest, ::testing::Range<uint64_t>(200, 215));

// ---------- Partitioner invariants ----------

struct PartitionParams {
  size_t clients;
  double alpha;
  uint64_t seed;
};

class PartitionPropertyTest : public ::testing::TestWithParam<PartitionParams> {};

TEST_P(PartitionPropertyTest, ConservesExamplesAndDimensions) {
  const auto p = GetParam();
  SyntheticSpec spec;
  spec.dim = 12;
  spec.num_classes = 8;
  spec.seed = p.seed;
  SyntheticTask task(spec);
  Rng rng(p.seed + 1);
  const Dataset full = task.Generate(600, rng);
  const auto shards = PartitionDirichlet(full, p.clients, p.alpha, rng);
  ASSERT_EQ(shards.size(), p.clients);
  size_t total = 0;
  for (const auto& shard : shards) {
    EXPECT_EQ(shard.dim(), full.dim());
    EXPECT_EQ(shard.num_classes(), full.num_classes());
    total += shard.size();
  }
  EXPECT_EQ(total, full.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PartitionPropertyTest,
    ::testing::Values(PartitionParams{2, 0.05, 1}, PartitionParams{10, 0.05, 2},
                      PartitionParams{10, 1.0, 3}, PartitionParams{50, 0.5, 4},
                      PartitionParams{100, 10.0, 5}, PartitionParams{1, 1.0, 6}));

// ---------- Model weight-space properties ----------

class ModelRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelRoundTripTest, SetGetWeightsIsIdentityForRandomVectors) {
  Rng rng(GetParam());
  auto model = MakeMlp("m", 8, 8, 4, GetParam());
  std::vector<float> w(model->NumParams());
  for (auto& v : w) {
    v = static_cast<float>(rng.Gaussian());
  }
  model->SetWeights(w);
  EXPECT_EQ(model->GetWeights(), w);
  // Weights fully determine predictions: two models with the same weights agree.
  auto other = MakeMlp("o", 8, 8, 4, GetParam() + 1);
  other->SetWeights(w);
  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_classes = 4;
  spec.seed = GetParam();
  SyntheticTask task(spec);
  Rng data_rng(GetParam() + 2);
  const Dataset data = task.Generate(50, data_rng);
  EXPECT_DOUBLE_EQ(model->Loss(data), other->Loss(data));
  EXPECT_DOUBLE_EQ(model->Accuracy(data), other->Accuracy(data));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelRoundTripTest, ::testing::Range<uint64_t>(300, 308));

}  // namespace
}  // namespace totoro
