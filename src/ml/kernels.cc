#include "src/ml/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>

#include "src/common/check.h"
#include "src/common/env.h"

#if defined(__x86_64__) || defined(_M_X64)
#define TOTORO_KERNELS_X86 1
#endif

namespace totoro {
namespace {

// ---- One loop per kernel -------------------------------------------------------
// Plain loops, compiled twice in this translation unit: as themselves for the build's
// baseline ISA (the scalar level), and inlined into the AVX2 wrappers below. The
// compiler vectorizes both; src/ml/CMakeLists.txt builds with -ffp-contract=off, so
// every mul and add stays a separate rounding at either width. Internal linkage keeps
// the linker from ever handing one compilation's copy to the other's callers.

namespace loops {

[[gnu::always_inline]] inline void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

[[gnu::always_inline]] inline void Axpy4(const float alpha[4], const float* x0,
                                         const float* x1, const float* x2, const float* x3,
                                         float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    // Four sequential mul+add pairs per element — the same roundings, in the same
    // order, as four consecutive Axpy passes.
    float acc = y[i];
    acc += alpha[0] * x0[i];
    acc += alpha[1] * x1[i];
    acc += alpha[2] * x2[i];
    acc += alpha[3] * x3[i];
    y[i] = acc;
  }
}

[[gnu::always_inline]] inline void AxpyI8(float alpha, const int8_t* q, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * static_cast<float>(q[i]);
  }
}

[[gnu::always_inline]] inline void Scale(float* x, float alpha, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    x[i] *= alpha;
  }
}

[[gnu::always_inline]] inline void Relu(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::max(x[i], 0.0f);
  }
}

[[gnu::always_inline]] inline void ReluMask(const float* act, float* grad, size_t n) {
  // A select, not a conditional store, so that it vectorizes.
  for (size_t i = 0; i < n; ++i) {
    grad[i] = act[i] <= 0.0f ? 0.0f : grad[i];
  }
}

[[gnu::always_inline]] inline void Lerp(float* w, const float* p, float alpha, size_t n) {
  const float one_minus = 1.0f - alpha;
  for (size_t i = 0; i < n; ++i) {
    w[i] = one_minus * w[i] + alpha * p[i];
  }
}

[[gnu::always_inline]] inline float Max(const float* x, size_t n) {
  // Sequential: softmax rows are short (at most 62 classes here), and exact anyway.
  float m = x[0];
  for (size_t i = 1; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

[[gnu::always_inline]] inline void Div(float* x, float denom, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    x[i] /= denom;
  }
}

}  // namespace loops

#if defined(TOTORO_KERNELS_X86)

// ---- The same loops compiled for AVX2 ------------------------------------------
// target("avx2") does not enable FMA, and -ffp-contract=off would forbid fusing anyway.

namespace avx2 {

__attribute__((target("avx2"))) void Axpy(float alpha, const float* x, float* y, size_t n) {
  loops::Axpy(alpha, x, y, n);
}

__attribute__((target("avx2"))) void Axpy4(const float alpha[4], const float* x0,
                                           const float* x1, const float* x2,
                                           const float* x3, float* y, size_t n) {
  loops::Axpy4(alpha, x0, x1, x2, x3, y, n);
}

__attribute__((target("avx2"))) void AxpyI8(float alpha, const int8_t* q, float* y,
                                            size_t n) {
  loops::AxpyI8(alpha, q, y, n);
}

__attribute__((target("avx2"))) void Scale(float* x, float alpha, size_t n) {
  loops::Scale(x, alpha, n);
}

__attribute__((target("avx2"))) void Relu(float* x, size_t n) { loops::Relu(x, n); }

__attribute__((target("avx2"))) void ReluMask(const float* act, float* grad, size_t n) {
  loops::ReluMask(act, grad, n);
}

__attribute__((target("avx2"))) void Lerp(float* w, const float* p, float alpha, size_t n) {
  loops::Lerp(w, p, alpha, n);
}

__attribute__((target("avx2"))) float Max(const float* x, size_t n) {
  return loops::Max(x, n);
}

__attribute__((target("avx2"))) void Div(float* x, float denom, size_t n) {
  loops::Div(x, denom, n);
}

}  // namespace avx2

#endif  // TOTORO_KERNELS_X86

// ---- Dispatch ------------------------------------------------------------------

struct KernelTable {
  void (*axpy)(float, const float*, float*, size_t);
  void (*axpy4)(const float[4], const float*, const float*, const float*, const float*,
                float*, size_t);
  void (*axpy_i8)(float, const int8_t*, float*, size_t);
  void (*scale)(float*, float, size_t);
  void (*relu)(float*, size_t);
  void (*relu_mask)(const float*, float*, size_t);
  void (*lerp)(float*, const float*, float, size_t);
  float (*max)(const float*, size_t);
  void (*div)(float*, float, size_t);
};

constexpr KernelTable kScalarTable = {loops::Axpy,  loops::Axpy4, loops::AxpyI8,
                                      loops::Scale, loops::Relu,  loops::ReluMask,
                                      loops::Lerp,  loops::Max,   loops::Div};
#if defined(TOTORO_KERNELS_X86)
constexpr KernelTable kAvx2Table = {avx2::Axpy,  avx2::Axpy4, avx2::AxpyI8,
                                    avx2::Scale, avx2::Relu,  avx2::ReluMask,
                                    avx2::Lerp,  avx2::Max,   avx2::Div};
#endif

const KernelTable* TableFor([[maybe_unused]] SimdLevel level) {
#if defined(TOTORO_KERNELS_X86)
  return level == SimdLevel::kAvx2 ? &kAvx2Table : &kScalarTable;
#else
  return &kScalarTable;
#endif
}

bool CpuHasAvx2() {
#if defined(TOTORO_KERNELS_X86)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// The level actually run for `level`: avx2 falls back to scalar on a CPU without it.
SimdLevel Clamp(SimdLevel level) {
  return level == SimdLevel::kAvx2 && CpuHasAvx2() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

// The active table. Resolved on first use; SetSimdLevelForTest swaps it (tests only —
// kernels are bit-identical across levels, so a mid-run swap cannot change results,
// only instruction mix).
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_level{-1};

const KernelTable* ActiveTable() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) {
    return t;
  }
  const SimdLevel level = ResolveSimdLevelFromEnv();
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  const KernelTable* resolved = TableFor(level);
  g_table.store(resolved, std::memory_order_release);
  return resolved;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel ActiveSimdLevel() {
  ActiveTable();
  return static_cast<SimdLevel>(g_level.load(std::memory_order_relaxed));
}

std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> out = {SimdLevel::kScalar};
  if (CpuHasAvx2()) {
    out.push_back(SimdLevel::kAvx2);
  }
  return out;
}

SimdLevel ResolveSimdLevelFromEnv() {
  const char* env = EnvString("TOTORO_SIMD");
  const std::string v = env == nullptr ? "avx2" : env;
  if (v == "scalar") {
    return SimdLevel::kScalar;
  }
  if (v != "avx2") {
    CheckFailed(__FILE__, __LINE__, "unknown TOTORO_SIMD value; accepted: scalar, avx2");
  }
  return Clamp(SimdLevel::kAvx2);
}

SimdLevel SetSimdLevelForTest(SimdLevel level) {
  const SimdLevel installed = Clamp(level);
  g_level.store(static_cast<int>(installed), std::memory_order_relaxed);
  g_table.store(TableFor(installed), std::memory_order_release);
  return installed;
}

void KAxpy(float alpha, const float* x, float* y, size_t n) {
  ActiveTable()->axpy(alpha, x, y, n);
}

void KAxpy4(const float alpha[4], const float* x0, const float* x1, const float* x2,
            const float* x3, float* y, size_t n) {
  ActiveTable()->axpy4(alpha, x0, x1, x2, x3, y, n);
}

void KAxpyI8(float alpha, const int8_t* q, float* y, size_t n) {
  ActiveTable()->axpy_i8(alpha, q, y, n);
}

void KScale(float* x, float alpha, size_t n) { ActiveTable()->scale(x, alpha, n); }

void KRelu(float* x, size_t n) { ActiveTable()->relu(x, n); }

void KReluMask(const float* act, float* grad, size_t n) {
  ActiveTable()->relu_mask(act, grad, n);
}

void KLerp(float* w, const float* p, float alpha, size_t n) {
  ActiveTable()->lerp(w, p, alpha, n);
}

float KMax(const float* x, size_t n) { return ActiveTable()->max(x, n); }

void KDiv(float* x, float denom, size_t n) { ActiveTable()->div(x, denom, n); }

void KSoftmax(float* x, size_t n) {
  if (n == 0) {
    return;
  }
  const float max_v = KMax(x, n);
  // exp + the sequential sum stay scalar: the sum order is part of the fingerprinted
  // numerics and must not reassociate under vectorization.
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - max_v);
    sum += x[i];
  }
  KDiv(x, sum, n);
}

}  // namespace totoro
