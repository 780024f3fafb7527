#include "src/ml/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>

#include "src/common/check.h"
#include "src/common/env.h"

#if defined(__x86_64__) || defined(_M_X64)
#define TOTORO_KERNELS_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define TOTORO_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace totoro {
namespace {

// ---- Scalar reference ----------------------------------------------------------
// Every other level must match these bit for bit (elementwise ops only; see header).

namespace scalar {

void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void Axpy4(const float alpha[4], const float* x0, const float* x1, const float* x2,
           const float* x3, float* y, size_t n) {
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

void AxpyI8(float alpha, const int8_t* q, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += alpha * static_cast<float>(q[i]);
  }
}

void ScaleK(float* x, float alpha, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    x[i] *= alpha;
  }
}

void Relu(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::max(x[i], 0.0f);
  }
}

void ReluMask(const float* act, float* grad, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (act[i] <= 0.0f) {
      grad[i] = 0.0f;
    }
  }
}

void Lerp(float* w, const float* p, float alpha, size_t n) {
  const float one_minus = 1.0f - alpha;
  for (size_t i = 0; i < n; ++i) {
    w[i] = one_minus * w[i] + alpha * p[i];
  }
}

float MaxK(const float* x, size_t n) {
  float m = x[0];
  for (size_t i = 1; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

void Div(float* x, float denom, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    x[i] /= denom;
  }
}

}  // namespace scalar

#if defined(TOTORO_KERNELS_X86)

// ---- SSE2 (x86-64 baseline, 4-wide) --------------------------------------------

namespace sse2 {

void Axpy(float alpha, const float* x, float* y, size_t n) {
  const __m128 va = _mm_set1_ps(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 vx = _mm_loadu_ps(x + i);
    const __m128 vy = _mm_loadu_ps(y + i);
    _mm_storeu_ps(y + i, _mm_add_ps(vy, _mm_mul_ps(va, vx)));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void Axpy4(const float alpha[4], const float* x0, const float* x1, const float* x2,
           const float* x3, float* y, size_t n) {
  const __m128 va0 = _mm_set1_ps(alpha[0]);
  const __m128 va1 = _mm_set1_ps(alpha[1]);
  const __m128 va2 = _mm_set1_ps(alpha[2]);
  const __m128 va3 = _mm_set1_ps(alpha[3]);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128 vy = _mm_loadu_ps(y + i);
    vy = _mm_add_ps(vy, _mm_mul_ps(va0, _mm_loadu_ps(x0 + i)));
    vy = _mm_add_ps(vy, _mm_mul_ps(va1, _mm_loadu_ps(x1 + i)));
    vy = _mm_add_ps(vy, _mm_mul_ps(va2, _mm_loadu_ps(x2 + i)));
    vy = _mm_add_ps(vy, _mm_mul_ps(va3, _mm_loadu_ps(x3 + i)));
    _mm_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) {
    float acc = y[i];
    acc += alpha[0] * x0[i];
    acc += alpha[1] * x1[i];
    acc += alpha[2] * x2[i];
    acc += alpha[3] * x3[i];
    y[i] = acc;
  }
}

void AxpyI8(float alpha, const int8_t* q, float* y, size_t n) {
  const __m128 va = _mm_set1_ps(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Sign-extend 4 int8 -> int32 without SSE4.1: duplicate the bytes up the lane and
    // arithmetic-shift back down.
    int32_t raw = 0;
    std::memcpy(&raw, q + i, 4);
    __m128i v8 = _mm_cvtsi32_si128(raw);
    v8 = _mm_unpacklo_epi8(v8, v8);
    v8 = _mm_unpacklo_epi16(v8, v8);
    const __m128i v32 = _mm_srai_epi32(v8, 24);
    const __m128 vq = _mm_cvtepi32_ps(v32);
    const __m128 vy = _mm_loadu_ps(y + i);
    _mm_storeu_ps(y + i, _mm_add_ps(vy, _mm_mul_ps(va, vq)));
  }
  for (; i < n; ++i) {
    y[i] += alpha * static_cast<float>(q[i]);
  }
}

void ScaleK(float* x, float alpha, size_t n) {
  const __m128 va = _mm_set1_ps(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_mul_ps(_mm_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) {
    x[i] *= alpha;
  }
}

void Relu(float* x, size_t n) {
  // maxps(0, v) = (0 > v) ? 0 : v — exactly std::max(v, 0.0f): -0.0 and NaN pass
  // through (the second operand wins ties and unordered compares).
  const __m128 zero = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_max_ps(zero, _mm_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    x[i] = std::max(x[i], 0.0f);
  }
}

void ReluMask(const float* act, float* grad, size_t n) {
  const __m128 zero = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // cmple is an ordered compare: NaN activation keeps its gradient, like the scalar
    // `act <= 0` test.
    const __m128 mask = _mm_cmple_ps(_mm_loadu_ps(act + i), zero);
    _mm_storeu_ps(grad + i, _mm_andnot_ps(mask, _mm_loadu_ps(grad + i)));
  }
  for (; i < n; ++i) {
    grad[i] = act[i] <= 0.0f ? 0.0f : grad[i];
  }
}

void Lerp(float* w, const float* p, float alpha, size_t n) {
  const float one_minus = 1.0f - alpha;
  const __m128 va = _mm_set1_ps(alpha);
  const __m128 vb = _mm_set1_ps(one_minus);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 vw = _mm_mul_ps(vb, _mm_loadu_ps(w + i));
    const __m128 vp = _mm_mul_ps(va, _mm_loadu_ps(p + i));
    _mm_storeu_ps(w + i, _mm_add_ps(vw, vp));
  }
  for (; i < n; ++i) {
    w[i] = one_minus * w[i] + alpha * p[i];
  }
}

float MaxK(const float* x, size_t n) {
  if (n < 4) {
    return scalar::MaxK(x, n);
  }
  __m128 vm = _mm_loadu_ps(x);
  size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    vm = _mm_max_ps(vm, _mm_loadu_ps(x + i));
  }
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, vm);
  float m = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
  for (; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

void Div(float* x, float denom, size_t n) {
  const __m128 vd = _mm_set1_ps(denom);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_div_ps(_mm_loadu_ps(x + i), vd));
  }
  for (; i < n; ++i) {
    x[i] /= denom;
  }
}

}  // namespace sse2

// ---- AVX2 (8-wide, runtime-detected) -------------------------------------------
// target("avx2") does NOT enable FMA: mul and add stay separate instructions, which
// is what keeps these bit-identical to the scalar reference.

namespace avx2 {

__attribute__((target("avx2"))) void Axpy(float alpha, const float* x, float* y,
                                          size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

__attribute__((target("avx2"))) void Axpy4(const float alpha[4], const float* x0,
                                           const float* x1, const float* x2,
                                           const float* x3, float* y, size_t n) {
  const __m256 va0 = _mm256_set1_ps(alpha[0]);
  const __m256 va1 = _mm256_set1_ps(alpha[1]);
  const __m256 va2 = _mm256_set1_ps(alpha[2]);
  const __m256 va3 = _mm256_set1_ps(alpha[3]);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_add_ps(vy, _mm256_mul_ps(va0, _mm256_loadu_ps(x0 + i)));
    vy = _mm256_add_ps(vy, _mm256_mul_ps(va1, _mm256_loadu_ps(x1 + i)));
    vy = _mm256_add_ps(vy, _mm256_mul_ps(va2, _mm256_loadu_ps(x2 + i)));
    vy = _mm256_add_ps(vy, _mm256_mul_ps(va3, _mm256_loadu_ps(x3 + i)));
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) {
    float acc = y[i];
    acc += alpha[0] * x0[i];
    acc += alpha[1] * x1[i];
    acc += alpha[2] * x2[i];
    acc += alpha[3] * x3[i];
    y[i] = acc;
  }
}

__attribute__((target("avx2"))) void AxpyI8(float alpha, const int8_t* q, float* y,
                                            size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i v8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i));
    const __m256i v32 = _mm256_cvtepi8_epi32(v8);
    const __m256 vq = _mm256_cvtepi32_ps(v32);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vq)));
  }
  for (; i < n; ++i) {
    y[i] += alpha * static_cast<float>(q[i]);
  }
}

__attribute__((target("avx2"))) void ScaleK(float* x, float alpha, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) {
    x[i] *= alpha;
  }
}

__attribute__((target("avx2"))) void Relu(float* x, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(zero, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) {
    x[i] = std::max(x[i], 0.0f);
  }
}

__attribute__((target("avx2"))) void ReluMask(const float* act, float* grad, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(act + i), zero, _CMP_LE_OQ);
    _mm256_storeu_ps(grad + i, _mm256_andnot_ps(mask, _mm256_loadu_ps(grad + i)));
  }
  for (; i < n; ++i) {
    grad[i] = act[i] <= 0.0f ? 0.0f : grad[i];
  }
}

__attribute__((target("avx2"))) void Lerp(float* w, const float* p, float alpha,
                                          size_t n) {
  const float one_minus = 1.0f - alpha;
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vb = _mm256_set1_ps(one_minus);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vw = _mm256_mul_ps(vb, _mm256_loadu_ps(w + i));
    const __m256 vp = _mm256_mul_ps(va, _mm256_loadu_ps(p + i));
    _mm256_storeu_ps(w + i, _mm256_add_ps(vw, vp));
  }
  for (; i < n; ++i) {
    w[i] = one_minus * w[i] + alpha * p[i];
  }
}

__attribute__((target("avx2"))) float MaxK(const float* x, size_t n) {
  if (n < 8) {
    return scalar::MaxK(x, n);
  }
  __m256 vm = _mm256_loadu_ps(x);
  size_t i = 8;
  for (; i + 8 <= n; i += 8) {
    vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vm);
  float m = std::max(std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3])),
                     std::max(std::max(lanes[4], lanes[5]), std::max(lanes[6], lanes[7])));
  for (; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

__attribute__((target("avx2"))) void Div(float* x, float denom, size_t n) {
  const __m256 vd = _mm256_set1_ps(denom);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_div_ps(_mm256_loadu_ps(x + i), vd));
  }
  for (; i < n; ++i) {
    x[i] /= denom;
  }
}

}  // namespace avx2

#endif  // TOTORO_KERNELS_X86

#if defined(TOTORO_KERNELS_NEON)

// ---- NEON (aarch64 baseline, 4-wide) -------------------------------------------

namespace neon {

void Axpy(float alpha, const float* x, float* y, size_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vx = vld1q_f32(x + i);
    const float32x4_t vy = vld1q_f32(y + i);
    vst1q_f32(y + i, vaddq_f32(vy, vmulq_f32(va, vx)));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void Axpy4(const float alpha[4], const float* x0, const float* x1, const float* x2,
           const float* x3, float* y, size_t n) {
  const float32x4_t va0 = vdupq_n_f32(alpha[0]);
  const float32x4_t va1 = vdupq_n_f32(alpha[1]);
  const float32x4_t va2 = vdupq_n_f32(alpha[2]);
  const float32x4_t va3 = vdupq_n_f32(alpha[3]);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t vy = vld1q_f32(y + i);
    vy = vaddq_f32(vy, vmulq_f32(va0, vld1q_f32(x0 + i)));
    vy = vaddq_f32(vy, vmulq_f32(va1, vld1q_f32(x1 + i)));
    vy = vaddq_f32(vy, vmulq_f32(va2, vld1q_f32(x2 + i)));
    vy = vaddq_f32(vy, vmulq_f32(va3, vld1q_f32(x3 + i)));
    vst1q_f32(y + i, vy);
  }
  for (; i < n; ++i) {
    float acc = y[i];
    acc += alpha[0] * x0[i];
    acc += alpha[1] * x1[i];
    acc += alpha[2] * x2[i];
    acc += alpha[3] * x3[i];
    y[i] = acc;
  }
}

void AxpyI8(float alpha, const int8_t* q, float* y, size_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t v16 = vmovl_s8(vld1_s8(q + i));
    const float32x4_t lo = vcvtq_f32_s32(vmovl_s16(vget_low_s16(v16)));
    const float32x4_t hi = vcvtq_f32_s32(vmovl_s16(vget_high_s16(v16)));
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), vmulq_f32(va, lo)));
    vst1q_f32(y + i + 4, vaddq_f32(vld1q_f32(y + i + 4), vmulq_f32(va, hi)));
  }
  for (; i < n; ++i) {
    y[i] += alpha * static_cast<float>(q[i]);
  }
}

void ScaleK(float* x, float alpha, size_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmulq_f32(vld1q_f32(x + i), va));
  }
  for (; i < n; ++i) {
    x[i] *= alpha;
  }
}

void Relu(float* x, size_t n) {
  // Compare + select, not vmax: FMAX orders -0 < +0 which would flip the sign of zero
  // relative to std::max(v, 0.0f).
  const float32x4_t zero = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    const uint32x4_t neg = vcltq_f32(v, zero);
    vst1q_f32(x + i, vbslq_f32(neg, zero, v));
  }
  for (; i < n; ++i) {
    x[i] = std::max(x[i], 0.0f);
  }
}

void ReluMask(const float* act, float* grad, size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t dead = vcleq_f32(vld1q_f32(act + i), zero);
    vst1q_f32(grad + i, vbslq_f32(dead, zero, vld1q_f32(grad + i)));
  }
  for (; i < n; ++i) {
    grad[i] = act[i] <= 0.0f ? 0.0f : grad[i];
  }
}

void Lerp(float* w, const float* p, float alpha, size_t n) {
  const float one_minus = 1.0f - alpha;
  const float32x4_t va = vdupq_n_f32(alpha);
  const float32x4_t vb = vdupq_n_f32(one_minus);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vw = vmulq_f32(vb, vld1q_f32(w + i));
    const float32x4_t vp = vmulq_f32(va, vld1q_f32(p + i));
    vst1q_f32(w + i, vaddq_f32(vw, vp));
  }
  for (; i < n; ++i) {
    w[i] = one_minus * w[i] + alpha * p[i];
  }
}

float MaxK(const float* x, size_t n) {
  if (n < 4) {
    return scalar::MaxK(x, n);
  }
  float32x4_t vm = vld1q_f32(x);
  size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    vm = vmaxq_f32(vm, vld1q_f32(x + i));
  }
  float m = vmaxvq_f32(vm);
  for (; i < n; ++i) {
    m = std::max(m, x[i]);
  }
  return m;
}

void Div(float* x, float denom, size_t n) {
  const float32x4_t vd = vdupq_n_f32(denom);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vdivq_f32(vld1q_f32(x + i), vd));
  }
  for (; i < n; ++i) {
    x[i] /= denom;
  }
}

}  // namespace neon

#endif  // TOTORO_KERNELS_NEON

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

constexpr KernelTable kScalarTable = {scalar::Axpy,     scalar::Axpy4,
                                      scalar::AxpyI8,   scalar::ScaleK,
                                      scalar::Relu,     scalar::ReluMask,
                                      scalar::Lerp,     scalar::MaxK,   scalar::Div};
#if defined(TOTORO_KERNELS_X86)
constexpr KernelTable kSse2Table = {sse2::Axpy,     sse2::Axpy4,
                                    sse2::AxpyI8,   sse2::ScaleK,
                                    sse2::Relu,     sse2::ReluMask,
                                    sse2::Lerp,     sse2::MaxK,   sse2::Div};
constexpr KernelTable kAvx2Table = {avx2::Axpy,     avx2::Axpy4,
                                    avx2::AxpyI8,   avx2::ScaleK,
                                    avx2::Relu,     avx2::ReluMask,
                                    avx2::Lerp,     avx2::MaxK,   avx2::Div};
#endif
#if defined(TOTORO_KERNELS_NEON)
constexpr KernelTable kNeonTable = {neon::Axpy,     neon::Axpy4,
                                    neon::AxpyI8,   neon::ScaleK,
                                    neon::Relu,     neon::ReluMask,
                                    neon::Lerp,     neon::MaxK,   neon::Div};
#endif

const KernelTable* TableFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarTable;
#if defined(TOTORO_KERNELS_X86)
    case SimdLevel::kSse2:
      return &kSse2Table;
    case SimdLevel::kAvx2:
      return &kAvx2Table;
#endif
#if defined(TOTORO_KERNELS_NEON)
    case SimdLevel::kNeon:
      return &kNeonTable;
#endif
    default:
      return &kScalarTable;
  }
}

bool LevelSupported(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
#if defined(TOTORO_KERNELS_X86)
    case SimdLevel::kSse2:
      return true;  // x86-64 baseline.
    case SimdLevel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#endif
#if defined(TOTORO_KERNELS_NEON)
    case SimdLevel::kNeon:
      return true;  // aarch64 baseline.
#endif
    default:
      return false;
  }
}

SimdLevel BestSupportedLevel() {
#if defined(TOTORO_KERNELS_X86)
  if (LevelSupported(SimdLevel::kAvx2)) {
    return SimdLevel::kAvx2;
  }
  return SimdLevel::kSse2;
#elif defined(TOTORO_KERNELS_NEON)
  return SimdLevel::kNeon;
#else
  return SimdLevel::kScalar;
#endif
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
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

SimdLevel ActiveSimdLevel() {
  ActiveTable();
  return static_cast<SimdLevel>(g_level.load(std::memory_order_relaxed));
}

std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> out;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (LevelSupported(level)) {
      out.push_back(level);
    }
  }
  return out;
}

SimdLevel ResolveSimdLevelFromEnv() {
  const char* env = EnvString("TOTORO_SIMD");
  if (env == nullptr) {
    return BestSupportedLevel();
  }
  const std::string v(env);
  SimdLevel wanted = SimdLevel::kScalar;
  if (v == "scalar") {
    wanted = SimdLevel::kScalar;
  } else if (v == "sse2") {
    wanted = SimdLevel::kSse2;
  } else if (v == "avx2") {
    wanted = SimdLevel::kAvx2;
  } else if (v == "neon") {
    wanted = SimdLevel::kNeon;
  } else {
    CheckFailed(__FILE__, __LINE__,
                "unknown TOTORO_SIMD value; accepted: scalar, sse2, avx2, neon");
  }
  return LevelSupported(wanted) ? wanted : BestSupportedLevel();
}

SimdLevel SetSimdLevelForTest(SimdLevel level) {
  const SimdLevel installed = LevelSupported(level) ? level : BestSupportedLevel();
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
