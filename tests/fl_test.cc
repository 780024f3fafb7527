#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/fl/aggregation.h"
#include "src/fl/client.h"
#include "src/fl/selection.h"
#include "src/ml/serialize.h"

namespace totoro {
namespace {

TEST(FederatedAverageTest, WeightedMean) {
  std::vector<WeightedUpdate> updates;
  updates.push_back({{1.0f, 2.0f}, 1.0});
  updates.push_back({{3.0f, 4.0f}, 3.0});
  const auto avg = FederatedAverage(updates);
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_FLOAT_EQ(avg[0], (1.0f + 9.0f) / 4.0f);
  EXPECT_FLOAT_EQ(avg[1], (2.0f + 12.0f) / 4.0f);
}

TEST(FederatedAverageTest, SingleUpdateIdentity) {
  std::vector<WeightedUpdate> updates;
  updates.push_back({{5.0f, -1.0f}, 7.0});
  EXPECT_EQ(FederatedAverage(updates), (std::vector<float>{5.0f, -1.0f}));
}

AggregationPiece MakePiece(std::vector<float> w, double weight) {
  auto payload = std::make_shared<WeightsPayload>();
  payload->weights = std::move(w);
  AggregationPiece p;
  p.data = std::move(payload);
  p.weight = weight;
  p.count = 1;
  return p;
}

const std::vector<float>& PieceWeights(const AggregationPiece& p) {
  return static_cast<const WeightsPayload*>(p.data.get())->weights;
}

TEST(FedAvgCombinerTest, MatchesFlatAverage) {
  auto combine = MakeFedAvgCombiner();
  std::vector<AggregationPiece> pieces;
  pieces.push_back(MakePiece({1.0f, 0.0f}, 2.0));
  pieces.push_back(MakePiece({0.0f, 1.0f}, 2.0));
  const auto total = combine(pieces);
  EXPECT_DOUBLE_EQ(total.weight, 4.0);
  EXPECT_EQ(total.count, 2u);
  EXPECT_FLOAT_EQ(PieceWeights(total)[0], 0.5f);
  EXPECT_FLOAT_EQ(PieceWeights(total)[1], 0.5f);
}

TEST(FedAvgCombinerTest, HierarchicalEqualsFlat) {
  // The associativity property Totoro's trees rely on: combining partial combines gives
  // the same result as a single flat combine.
  auto combine = MakeFedAvgCombiner();
  std::vector<AggregationPiece> all;
  all.push_back(MakePiece({1.0f}, 1.0));
  all.push_back(MakePiece({2.0f}, 2.0));
  all.push_back(MakePiece({3.0f}, 3.0));
  all.push_back(MakePiece({4.0f}, 4.0));
  const auto flat = combine(all);

  std::vector<AggregationPiece> left = {all[0], all[1]};
  std::vector<AggregationPiece> right = {all[2], all[3]};
  std::vector<AggregationPiece> partials = {combine(left), combine(right)};
  const auto tree = combine(partials);

  EXPECT_DOUBLE_EQ(tree.weight, flat.weight);
  EXPECT_EQ(tree.count, flat.count);
  EXPECT_NEAR(PieceWeights(tree)[0], PieceWeights(flat)[0], 1e-5f);
}

TEST(CompressionTest, NoneKeepsEverything) {
  std::vector<float> w = {1.0f, 2.0f};
  std::vector<float> ref = {0.0f, 0.0f};
  CompressionConfig config;
  const auto out = CompressUpdate(w, ref, config);
  EXPECT_EQ(out.Reconstruct(ref), w);
  EXPECT_EQ(out.wire_bytes, 8u);
}

TEST(CompressionTest, TopKKeepsLargestDeltas) {
  std::vector<float> ref(10, 0.0f);
  std::vector<float> w = ref;
  w[3] = 10.0f;  // Big delta.
  w[7] = 0.1f;   // Small delta.
  CompressionConfig config;
  config.kind = CompressionKind::kTopK;
  config.topk_fraction = 0.1;  // Keep 1 of 10.
  const auto out = CompressUpdate(w, ref, config);
  const auto reconstructed = out.Reconstruct(ref);
  EXPECT_FLOAT_EQ(reconstructed[3], 10.0f);
  EXPECT_FLOAT_EQ(reconstructed[7], 0.0f);  // Dropped.
  EXPECT_EQ(out.wire_bytes, 8u);                 // 1 (index,value) pair.
  EXPECT_LT(out.wire_bytes, 10 * 4u);
}

TEST(CompressionTest, Int8ShrinksWire) {
  std::vector<float> w(100, 0.5f);
  std::vector<float> ref(100, 0.0f);
  CompressionConfig config;
  config.kind = CompressionKind::kInt8;
  const auto out = CompressUpdate(w, ref, config);
  EXPECT_LT(out.wire_bytes, 100 * 4u);
  for (float v : out.Reconstruct(ref)) {
    EXPECT_NEAR(v, 0.5f, 0.01f);
  }
}

TEST(CompressionTest, TopKReconstructionIdentityAndWireAccounting) {
  // Reconstruction identity: every untouched coordinate equals the reference exactly,
  // every kept coordinate equals the input exactly, at most k coordinates move, and
  // the kept set dominates the dropped set by |delta|.
  Rng rng(77);
  const size_t n = 64;
  std::vector<float> ref(n);
  std::vector<float> w(n);
  for (size_t i = 0; i < n; ++i) {
    ref[i] = static_cast<float>(rng.Gaussian());
    w[i] = ref[i] + static_cast<float>(rng.Gaussian(0.0, 0.5));
  }
  CompressionConfig config;
  config.kind = CompressionKind::kTopK;
  config.topk_fraction = 0.25;
  const size_t k = 16;  // ceil(0.25 * 64).
  const auto out = CompressUpdate(w, ref, config);
  const auto dense = out.Reconstruct(ref);
  ASSERT_EQ(dense.size(), n);
  EXPECT_EQ(out.topk_indices.size(), k);
  EXPECT_EQ(out.wire_bytes, k * (sizeof(uint32_t) + sizeof(float)));

  size_t kept = 0;
  float min_kept_delta = 1e30f;
  float max_dropped_delta = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    if (dense[i] == ref[i] && w[i] != ref[i]) {
      max_dropped_delta = std::max(max_dropped_delta, std::abs(w[i] - ref[i]));
      continue;  // Dropped coordinate: exactly the reference.
    }
    EXPECT_EQ(dense[i], w[i]) << "kept coordinate must be exact at " << i;
    if (w[i] != ref[i]) {
      ++kept;
      min_kept_delta = std::min(min_kept_delta, std::abs(w[i] - ref[i]));
    }
  }
  EXPECT_LE(kept, k);
  EXPECT_GE(min_kept_delta, max_dropped_delta);
}

TEST(CompressionTest, Int8AndNoneParity) {
  // kNone is the identity with exact wire accounting; kInt8 matches the serializer's
  // encode/decode round trip bit-for-bit and its wire format (scale + 1 byte/coord).
  Rng rng(78);
  const size_t n = 200;
  std::vector<float> ref(n, 0.0f);
  std::vector<float> w(n);
  for (auto& v : w) {
    v = static_cast<float>(rng.Gaussian(0.0, 2.0));
  }
  CompressionConfig none;
  const auto plain = CompressUpdate(w, ref, none);
  EXPECT_EQ(plain.Reconstruct(ref), w);
  EXPECT_EQ(plain.wire_bytes, n * sizeof(float));

  CompressionConfig int8;
  int8.kind = CompressionKind::kInt8;
  const auto quantized = CompressUpdate(w, ref, int8);
  EXPECT_EQ(quantized.wire_bytes, n + sizeof(float));
  // The stored payload IS the wire blob, and its lazy reconstruction matches the
  // serializer's encode/decode round trip bit-for-bit.
  EXPECT_EQ(quantized.payload, EncodeInt8(w));
  const auto dense = quantized.Reconstruct({});
  EXPECT_EQ(dense, DecodeInt8(EncodeInt8(w)));
  float max_abs = 0.0f;
  for (float v : w) {
    max_abs = std::max(max_abs, std::abs(v));
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(dense[i], w[i], max_abs / 127.0f * 0.51f);
  }
}

TEST(PrivacyTest, ClipBoundsDeltaNorm) {
  Rng rng(1);
  std::vector<float> ref(50, 0.0f);
  std::vector<float> w(50, 10.0f);  // Huge delta, norm ~70.
  DpConfig config;
  config.clip_norm = 1.0;
  config.noise_multiplier = 0.0;  // Pure clipping.
  const auto out = ApplyDp(w, ref, config, rng);
  double norm = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    norm += static_cast<double>(out[i] - ref[i]) * (out[i] - ref[i]);
  }
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-5);
}

TEST(PrivacyTest, SmallDeltaUnclipped) {
  Rng rng(2);
  std::vector<float> ref(10, 0.0f);
  std::vector<float> w(10, 0.01f);
  DpConfig config;
  config.clip_norm = 10.0;
  config.noise_multiplier = 0.0;
  const auto out = ApplyDp(w, ref, config, rng);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], w[i], 1e-6f);
  }
}

TEST(PrivacyTest, NoiseMagnitudeMatchesMultiplier) {
  Rng rng(3);
  const size_t n = 10000;
  std::vector<float> ref(n, 0.0f);
  std::vector<float> w(n, 0.0f);
  DpConfig config;
  config.clip_norm = 1.0;
  config.noise_multiplier = 2.0;
  const auto out = ApplyDp(w, ref, config, rng);
  double var = 0;
  for (float v : out) {
    var += static_cast<double>(v) * v;
  }
  var /= n;
  const double expected_var = 4.0 / static_cast<double>(n);
  EXPECT_NEAR(var, expected_var, expected_var * 0.1);
}

TEST(LocalTrainerTest, TrainsAndReportsCost) {
  SyntheticTask task(SyntheticTask::TextClassificationLike(7));
  Rng rng(8);
  Dataset shard = task.Generate(100, rng);
  LocalTrainer trainer(std::move(shard), 2.0, 10);
  auto model = MakeSoftmaxRegression("m", 32, 4, 9);
  auto global = MakeSoftmaxRegression("g", 32, 4, 11)->GetWeights();
  TrainConfig config;
  config.local_steps = 5;
  config.batch_size = 20;
  ComputeModel compute;
  const auto update = trainer.Train(*model, global, config, compute);
  EXPECT_EQ(update.weights.size(), global.size());
  EXPECT_DOUBLE_EQ(update.sample_weight, 100.0);
  // speed 2.0 halves the time relative to speed 1.0.
  const double expected =
      compute.TrainTimeMs(update.weights.size(), 100, 2.0);
  EXPECT_DOUBLE_EQ(update.compute_time_ms, expected);
  EXPECT_EQ(update.wire_bytes, update.weights.size() * 4);
  EXPECT_GT(update.train_loss, 0.0f);
}

TEST(LocalTrainerTest, CompressionShrinksWireBytes) {
  SyntheticTask task(SyntheticTask::TextClassificationLike(17));
  Rng rng(18);
  Dataset shard = task.Generate(60, rng);
  LocalTrainer trainer(std::move(shard), 1.0, 20);
  auto model = MakeSoftmaxRegression("m", 32, 4, 19);
  auto global = MakeSoftmaxRegression("g", 32, 4, 21)->GetWeights();
  TrainConfig config;
  config.local_steps = 3;
  CompressionConfig compression;
  compression.kind = CompressionKind::kTopK;
  compression.topk_fraction = 0.05;
  const auto update =
      trainer.Train(*model, global, config, ComputeModel{}, std::nullopt, compression);
  EXPECT_LT(update.wire_bytes, global.size() * 4 / 2);
}

// The replica contract (src/ml/model.h) that lets trainers borrow a per-slot model: a
// replica another trainer already trained on yields the same update, bit for bit, as a
// fresh one.
TEST(LocalTrainerTest, UsedReplicaTrainsBitIdenticallyToAFreshOne) {
  SyntheticTask task(SyntheticTask::TextClassificationLike(27));
  Rng rng(28);
  const Dataset shard = task.Generate(80, rng);
  const auto base = MakeMlp("m", 32, 16, 4, 29);
  const auto global = MakeMlp("g", 32, 16, 4, 30)->GetWeights();
  TrainConfig config;
  config.local_steps = 4;
  config.fedprox_mu = 0.01f;

  // Another trainer, another shard and other start weights leave their mark on `used`.
  auto used = base->Clone();
  LocalTrainer other(task.Generate(50, rng), 1.0, 31);
  other.Train(*used, MakeMlp("o", 32, 16, 4, 32)->GetWeights(), config, ComputeModel{});
  ASSERT_NE(used->GetWeights(), base->GetWeights());

  auto fresh = base->Clone();
  LocalTrainer a(shard, 1.0, 33);
  LocalTrainer b(shard, 1.0, 33);
  const LocalUpdate on_fresh = a.Train(*fresh, global, config, ComputeModel{});
  const LocalUpdate on_used = b.Train(*used, global, config, ComputeModel{});
  EXPECT_EQ(on_fresh.weights, on_used.weights);
  EXPECT_EQ(on_fresh.train_loss, on_used.train_loss);
  EXPECT_EQ(a.last_loss(), b.last_loss());
}

TEST(SelectorTest, RandomSelectsDistinct) {
  std::vector<ClientInfo> clients;
  for (size_t i = 0; i < 20; ++i) {
    clients.push_back({i, 1.0, 1.0});
  }
  RandomSelector selector;
  Rng rng(30);
  const auto chosen = selector.Select(clients, 8, rng);
  EXPECT_EQ(chosen.size(), 8u);
  std::set<size_t> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), 8u);
}

TEST(SelectorTest, OortPrefersHighLossFastClients) {
  std::vector<ClientInfo> clients;
  for (size_t i = 0; i < 10; ++i) {
    clients.push_back({i, i == 3 ? 10.0 : 0.1, i == 3 ? 4.0 : 1.0});
  }
  OortLikeSelector selector(/*exploration_fraction=*/0.0);
  Rng rng(31);
  const auto chosen = selector.Select(clients, 1, rng);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0], 3u);
}

TEST(SelectorTest, OortExploresWithBudget) {
  std::vector<ClientInfo> clients;
  for (size_t i = 0; i < 100; ++i) {
    clients.push_back({i, i < 10 ? 10.0 : 0.1, 1.0});
  }
  OortLikeSelector selector(/*exploration_fraction=*/0.5);
  Rng rng(32);
  const auto chosen = selector.Select(clients, 20, rng);
  EXPECT_EQ(chosen.size(), 20u);
  // At least some picks outside the top-10 utility set.
  size_t outside = 0;
  for (size_t c : chosen) {
    if (c >= 10) {
      ++outside;
    }
  }
  EXPECT_GT(outside, 0u);
}

TEST(SelectorTest, OortAlwaysFillsCountWithDistinctClients) {
  // Sweep pool sizes, counts and exploration fractions: Select must return exactly
  // `count` distinct clients regardless of how the explore/exploit split rounds.
  for (size_t pool : {1u, 2u, 5u, 7u, 20u, 33u}) {
    std::vector<ClientInfo> clients;
    for (size_t i = 0; i < pool; ++i) {
      clients.push_back({i, 0.1 * static_cast<double>(i % 4), 1.0 + 0.5 * (i % 3)});
    }
    for (double frac : {0.0, 0.1, 0.33, 0.5, 0.9, 1.0}) {
      OortLikeSelector selector(frac);
      for (size_t count = 1; count <= pool; ++count) {
        Rng rng(1000 + pool * 31 + count);
        const auto chosen = selector.Select(clients, count, rng);
        ASSERT_EQ(chosen.size(), count)
            << "pool=" << pool << " frac=" << frac << " count=" << count;
        std::set<size_t> unique(chosen.begin(), chosen.end());
        EXPECT_EQ(unique.size(), count);
        for (size_t c : chosen) {
          EXPECT_LT(c, pool);
        }
      }
    }
  }
}

}  // namespace
}  // namespace totoro
