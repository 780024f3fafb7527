// Kernel-parity property tests: every SIMD dispatch level must be bit-identical to
// the scalar reference on every kernel (the contract in src/ml/kernels.h), plus the
// int8-inference accuracy-delta check on the fig8 (Speech-like) workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/ml/dataset.h"
#include "src/ml/kernels.h"
#include "src/ml/model.h"
#include "src/ml/quantized.h"
#include "src/ml/serialize.h"

namespace totoro {
namespace {

// Restores the startup dispatch level when a test scope ends.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(ActiveSimdLevel()) {}
  ~SimdLevelGuard() { SetSimdLevelForTest(saved_); }

 private:
  SimdLevel saved_;
};

// Bitwise equality — EXPECT_EQ on floats would treat -0.0 == +0.0 and NaN != NaN.
bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Random vector salted with the edge cases the kernels must pass through unchanged:
// -0.0, denormals, and (when allowed) NaN.
std::vector<float> RandomVector(Rng& rng, size_t n, bool with_nan) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.Gaussian(0.0, 2.0));
  }
  if (n >= 4) {
    v[n / 4] = -0.0f;
    v[n / 2] = 1e-41f;  // Denormal.
    if (with_nan) {
      v[3 * n / 4] = std::numeric_limits<float>::quiet_NaN();
    }
  }
  return v;
}

// Sizes straddling every vector width and tail combination (4/8-wide + remainders).
const size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100};

TEST(KernelParityTest, SupportedLevelsAlwaysIncludePortableOnes) {
  const auto levels = SupportedSimdLevels();
  ASSERT_GE(levels.size(), 1u);
  EXPECT_EQ(levels[0], SimdLevel::kScalar);
  for (SimdLevel level : levels) {
    EXPECT_STRNE(SimdLevelName(level), "unknown");
  }
}

TEST(SimdEnvTest, KnownLevelTheCpuLacksClampsToTheBest) {
  const auto supported = SupportedSimdLevels();
  for (SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (std::find(supported.begin(), supported.end(), level) != supported.end()) {
      continue;
    }
    ::setenv("TOTORO_SIMD", SimdLevelName(level), 1);
    EXPECT_EQ(ResolveSimdLevelFromEnv(), supported.back()) << SimdLevelName(level);
  }
  ::setenv("TOTORO_SIMD", "scalar", 1);
  EXPECT_EQ(ResolveSimdLevelFromEnv(), SimdLevel::kScalar);
  ::unsetenv("TOTORO_SIMD");
  EXPECT_EQ(ResolveSimdLevelFromEnv(), supported.back());
}

TEST(SimdEnvDeathTest, UnknownValueFailsListingAcceptedValues) {
  for (const char* bad : {"unrolled", "native", "AVX2"}) {
    ::setenv("TOTORO_SIMD", bad, 1);
    EXPECT_DEATH(ResolveSimdLevelFromEnv(), "accepted: scalar, sse2, avx2, neon") << bad;
  }
  ::unsetenv("TOTORO_SIMD");
}

TEST(KernelParityTest, SetSimdLevelForTestInstallsAndReports) {
  SimdLevelGuard guard;
  for (SimdLevel level : SupportedSimdLevels()) {
    EXPECT_EQ(SetSimdLevelForTest(level), level);
    EXPECT_EQ(ActiveSimdLevel(), level);
  }
}

TEST(KernelParityTest, AxpyBitIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  Rng rng(101);
  for (size_t n : kSizes) {
    const auto x = RandomVector(rng, n, /*with_nan=*/true);
    const auto y0 = RandomVector(rng, n, /*with_nan=*/false);
    const float alpha = static_cast<float>(rng.Gaussian(0.0, 1.5));
    SetSimdLevelForTest(SimdLevel::kScalar);
    auto want = y0;
    KAxpy(alpha, x.data(), want.data(), n);
    for (SimdLevel level : SupportedSimdLevels()) {
      SetSimdLevelForTest(level);
      auto got = y0;
      KAxpy(alpha, x.data(), got.data(), n);
      EXPECT_TRUE(BitEqual(got, want))
          << "KAxpy diverges at level " << SimdLevelName(level) << " n=" << n;
    }
  }
}

TEST(KernelParityTest, Axpy4MatchesFourSequentialAxpysAtEveryLevel) {
  // The KAxpy4 contract: exactly the op sequence of four consecutive KAxpy calls
  // (per element: four mul+add pairs in alpha order), just one y pass. Reference is
  // scalar KAxpy called four times; every level's KAxpy4 must match it bit for bit.
  SimdLevelGuard guard;
  Rng rng(109);
  for (size_t n : kSizes) {
    const auto x0 = RandomVector(rng, n, /*with_nan=*/true);
    const auto x1 = RandomVector(rng, n, /*with_nan=*/false);
    const auto x2 = RandomVector(rng, n, /*with_nan=*/false);
    const auto x3 = RandomVector(rng, n, /*with_nan=*/true);
    const auto y0 = RandomVector(rng, n, /*with_nan=*/false);
    const float al[4] = {static_cast<float>(rng.Gaussian(0.0, 1.5)),
                         static_cast<float>(rng.Gaussian(0.0, 1.5)), 0.0f,
                         static_cast<float>(rng.Gaussian(0.0, 1.5))};
    SetSimdLevelForTest(SimdLevel::kScalar);
    auto want = y0;
    KAxpy(al[0], x0.data(), want.data(), n);
    KAxpy(al[1], x1.data(), want.data(), n);
    KAxpy(al[2], x2.data(), want.data(), n);
    KAxpy(al[3], x3.data(), want.data(), n);
    for (SimdLevel level : SupportedSimdLevels()) {
      SetSimdLevelForTest(level);
      auto got = y0;
      KAxpy4(al, x0.data(), x1.data(), x2.data(), x3.data(), got.data(), n);
      EXPECT_TRUE(BitEqual(got, want))
          << "KAxpy4 diverges at level " << SimdLevelName(level) << " n=" << n;
    }
  }
}

TEST(KernelParityTest, AxpyI8BitIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  Rng rng(102);
  for (size_t n : kSizes) {
    std::vector<int8_t> q(n);
    for (size_t i = 0; i < n; ++i) {
      q[i] = static_cast<int8_t>(static_cast<int>(rng.NextBelow(255)) - 127);
    }
    const auto y0 = RandomVector(rng, n, /*with_nan=*/false);
    const float alpha = static_cast<float>(rng.Gaussian(0.0, 0.1));
    SetSimdLevelForTest(SimdLevel::kScalar);
    auto want = y0;
    KAxpyI8(alpha, q.data(), want.data(), n);
    for (SimdLevel level : SupportedSimdLevels()) {
      SetSimdLevelForTest(level);
      auto got = y0;
      KAxpyI8(alpha, q.data(), got.data(), n);
      EXPECT_TRUE(BitEqual(got, want))
          << "KAxpyI8 diverges at level " << SimdLevelName(level) << " n=" << n;
    }
  }
}

TEST(KernelParityTest, ScaleReluLerpDivBitIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  Rng rng(103);
  for (size_t n : kSizes) {
    const auto base = RandomVector(rng, n, /*with_nan=*/true);
    const auto other = RandomVector(rng, n, /*with_nan=*/false);
    const float alpha = static_cast<float>(rng.Gaussian(0.0, 1.0));
    const float denom = 1.5f + std::abs(static_cast<float>(rng.Gaussian(0.0, 1.0)));

    SetSimdLevelForTest(SimdLevel::kScalar);
    auto want_scale = base;
    KScale(want_scale.data(), alpha, n);
    auto want_relu = base;
    KRelu(want_relu.data(), n);
    auto want_lerp = base;
    KLerp(want_lerp.data(), other.data(), alpha, n);
    auto want_div = base;
    KDiv(want_div.data(), denom, n);

    for (SimdLevel level : SupportedSimdLevels()) {
      SetSimdLevelForTest(level);
      auto got = base;
      KScale(got.data(), alpha, n);
      EXPECT_TRUE(BitEqual(got, want_scale)) << "KScale " << SimdLevelName(level);
      got = base;
      KRelu(got.data(), n);
      EXPECT_TRUE(BitEqual(got, want_relu)) << "KRelu " << SimdLevelName(level);
      got = base;
      KLerp(got.data(), other.data(), alpha, n);
      EXPECT_TRUE(BitEqual(got, want_lerp)) << "KLerp " << SimdLevelName(level);
      got = base;
      KDiv(got.data(), denom, n);
      EXPECT_TRUE(BitEqual(got, want_div)) << "KDiv " << SimdLevelName(level);
    }
  }
}

TEST(KernelParityTest, ReluSemanticsMatchStdMax) {
  SimdLevelGuard guard;
  // -0.0 passes through (std::max(v, 0.0f) returns the first operand on ties) and NaN
  // propagates, at every level including the intrinsic ones.
  const std::vector<float> in = {-1.0f, -0.0f, 0.0f, 2.5f,
                                 std::numeric_limits<float>::quiet_NaN(),
                                 -3.0f, 1e-41f, -1e-41f};
  for (SimdLevel level : SupportedSimdLevels()) {
    SetSimdLevelForTest(level);
    auto v = in;
    KRelu(v.data(), v.size());
    EXPECT_TRUE(std::signbit(v[1])) << SimdLevelName(level) << ": -0.0 must survive";
    EXPECT_FALSE(std::signbit(v[2])) << SimdLevelName(level);
    EXPECT_TRUE(std::isnan(v[4])) << SimdLevelName(level) << ": NaN must propagate";
    EXPECT_EQ(v[5], 0.0f) << SimdLevelName(level);
    EXPECT_EQ(v[7], 0.0f) << SimdLevelName(level) << ": negative denormal clamps";
  }
}

TEST(KernelParityTest, ReluMaskBitIdenticalAndNaNKeepsGrad) {
  SimdLevelGuard guard;
  Rng rng(104);
  for (size_t n : kSizes) {
    const auto act = RandomVector(rng, n, /*with_nan=*/true);
    const auto grad0 = RandomVector(rng, n, /*with_nan=*/false);
    SetSimdLevelForTest(SimdLevel::kScalar);
    auto want = grad0;
    KReluMask(act.data(), want.data(), n);
    for (SimdLevel level : SupportedSimdLevels()) {
      SetSimdLevelForTest(level);
      auto got = grad0;
      KReluMask(act.data(), got.data(), n);
      EXPECT_TRUE(BitEqual(got, want))
          << "KReluMask diverges at level " << SimdLevelName(level) << " n=" << n;
    }
  }
  // A NaN activation fails `act <= 0` and must keep its gradient.
  const std::vector<float> act = {std::numeric_limits<float>::quiet_NaN(), -1.0f};
  for (SimdLevel level : SupportedSimdLevels()) {
    SetSimdLevelForTest(level);
    std::vector<float> grad = {5.0f, 5.0f};
    KReluMask(act.data(), grad.data(), grad.size());
    EXPECT_EQ(grad[0], 5.0f) << SimdLevelName(level);
    EXPECT_EQ(grad[1], 0.0f) << SimdLevelName(level);
  }
}

TEST(KernelParityTest, MaxAndSoftmaxBitIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  Rng rng(105);
  for (size_t n : kSizes) {
    const auto x = RandomVector(rng, n, /*with_nan=*/false);
    SetSimdLevelForTest(SimdLevel::kScalar);
    const float want_max = KMax(x.data(), n);
    auto want_soft = x;
    KSoftmax(want_soft.data(), n);
    for (SimdLevel level : SupportedSimdLevels()) {
      SetSimdLevelForTest(level);
      const float got_max = KMax(x.data(), n);
      EXPECT_EQ(std::memcmp(&got_max, &want_max, sizeof(float)), 0)
          << "KMax diverges at level " << SimdLevelName(level) << " n=" << n;
      auto got_soft = x;
      KSoftmax(got_soft.data(), n);
      EXPECT_TRUE(BitEqual(got_soft, want_soft))
          << "KSoftmax diverges at level " << SimdLevelName(level) << " n=" << n;
    }
  }
}

TEST(KernelParityTest, TrainedModelWeightsBitIdenticalAcrossLevels) {
  // End-to-end: a short local-training run reaches byte-identical weights at every
  // dispatch level — the property the committed bench fingerprints rely on.
  SimdLevelGuard guard;
  SyntheticTask task(SyntheticTask::SpeechCommandsLike(7));
  Rng data_rng(8);
  const Dataset shard = task.Generate(120, data_rng);
  TrainConfig config;
  config.local_steps = 5;
  std::vector<float> reference;
  for (SimdLevel level : SupportedSimdLevels()) {
    SetSimdLevelForTest(level);
    auto model = MakeResNet34Proxy(task.spec().dim, task.spec().num_classes, 21);
    Rng train_rng(22);
    model->TrainLocal(shard, config, train_rng);
    const auto weights = model->GetWeights();
    if (reference.empty()) {
      reference = weights;
      continue;
    }
    EXPECT_TRUE(BitEqual(weights, reference))
        << "training diverges at level " << SimdLevelName(level);
  }
}

TEST(QuantizedMlpTest, Int8AccuracyDeltaOnFig8Workload) {
  // The fig8 (Speech-like) workload: train the ResNet-34 proxy briefly, then compare
  // float accuracy against both int8 paths. Quantization noise must cost at most a few
  // points of accuracy on the held-out set.
  SyntheticTask task(SyntheticTask::SpeechCommandsLike(7));
  Rng data_rng(9);
  const Dataset train = task.Generate(400, data_rng);
  const Dataset test = task.Generate(400, data_rng);
  auto model = MakeResNet34Proxy(task.spec().dim, task.spec().num_classes, 31);
  TrainConfig config;
  config.learning_rate = 0.1f;
  config.local_steps = 200;
  Rng train_rng(32);
  model->TrainLocal(train, config, train_rng);

  const double float_acc = model->Accuracy(test);
  // 35 classes: chance is ~2.9%; a briefly-trained model well clear of that makes the
  // quantization delta meaningful.
  ASSERT_GT(float_acc, 0.25) << "workload must be learnable for the delta to mean much";

  const auto weights = model->GetWeights();
  const QuantizedMlp::Layout layout{task.spec().dim, 256, task.spec().num_classes};
  ASSERT_EQ(layout.NumParams(), weights.size());

  // Rowwise quantization (higher fidelity).
  const auto rowwise = QuantizedMlp::FromWeights(weights, layout);
  const double rowwise_acc = rowwise.Accuracy(test);
  EXPECT_NEAR(rowwise_acc, float_acc, 0.03);

  // Per-tensor wire blob consumed without decode.
  const auto blob = EncodeInt8(weights);
  const auto from_blob = QuantizedMlp::FromInt8Blob(blob, layout);
  const double blob_acc = from_blob.Accuracy(test);
  EXPECT_NEAR(blob_acc, float_acc, 0.05);

  // The int8 representation must actually be ~4x smaller than float32 on the wire.
  EXPECT_LT(rowwise.WireBytes(), weights.size() * sizeof(float) / 3);
}

TEST(QuantizedMlpTest, PredictionsBitIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  SyntheticTask task(SyntheticTask::SpeechCommandsLike(11));
  Rng data_rng(12);
  const Dataset data = task.Generate(50, data_rng);
  auto model = MakeShuffleNetV2Proxy(task.spec().dim, task.spec().num_classes, 13);
  const auto weights = model->GetWeights();
  const QuantizedMlp::Layout layout{task.spec().dim, 96, task.spec().num_classes};
  const auto q = QuantizedMlp::FromWeights(weights, layout);

  std::vector<std::vector<float>> reference;
  for (SimdLevel level : SupportedSimdLevels()) {
    SetSimdLevelForTest(level);
    std::vector<std::vector<float>> probs;
    probs.reserve(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      probs.push_back(q.Predict(data.example(i).x));
    }
    if (reference.empty()) {
      reference = std::move(probs);
      continue;
    }
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(BitEqual(probs[i], reference[i]))
          << "int8 predict diverges at level " << SimdLevelName(level);
    }
  }
}

TEST(QuantizedMlpTest, FromInt8BlobMatchesDecodedWeights) {
  // Consuming the blob directly must predict the same classes as decoding the blob to
  // float and predicting with the dense model (the two paths differ only in summation
  // of identical quantized values scaled identically).
  SyntheticTask task(SyntheticTask::SpeechCommandsLike(17));
  Rng data_rng(18);
  const Dataset data = task.Generate(100, data_rng);
  auto model = MakeTextClassifierProxy(task.spec().dim, task.spec().num_classes, 19);
  const auto weights = model->GetWeights();
  const auto blob = EncodeInt8(weights);
  const QuantizedMlp::Layout layout{task.spec().dim, 32, task.spec().num_classes};
  const auto q = QuantizedMlp::FromInt8Blob(blob, layout);

  auto decoded_model =
      MakeMlp("decoded", task.spec().dim, 32, task.spec().num_classes, 19);
  decoded_model->SetWeights(DecodeInt8(blob));
  // The paths sum the same scaled int8 values in a different association; only
  // near-tie argmaxes can flip, so the accuracies track each other closely.
  EXPECT_NEAR(q.Accuracy(data), decoded_model->Accuracy(data), 0.05);
}

}  // namespace
}  // namespace totoro
