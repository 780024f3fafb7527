// Explicitly vectorized inner-loop kernels for the model math hot path.
//
// Every kernel here is ELEMENTWISE (axpy / scale / relu / lerp / int8-axpy): each
// output element is computed by the same sequence of IEEE operations regardless of
// vector width, so the SSE2/AVX2/NEON paths are bit-identical to the scalar reference
// — no reductions are reassociated, no FMA contraction is emitted (mul + add stay
// separate instructions). That is the contract that lets the training path vectorize
// while the committed bench fingerprints (bit-exact per seed) stay unchanged; the
// parity tests in tests/kernels_test.cc enforce it at every dispatch level.
//
// Reductions that would reassociate under vectorization (the sequential float Dot used
// by backprop's MulMatT, softmax's exp-sum) deliberately stay scalar; softmax's
// row max IS vectorized because max is exact under any association.
//
// Dispatch is resolved once at startup: highest level the CPU supports, overridable
// with the TOTORO_SIMD env knob (scalar|sse2|avx2|neon) or SetSimdLevelForTest().
// Because all levels are bit-identical, the choice never affects simulation results —
// only wall-clock speed.
#ifndef SRC_ML_KERNELS_H_
#define SRC_ML_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace totoro {

enum class SimdLevel : int {
  kScalar = 0,  // Plain loops (also the semantic reference and the fallback ISA).
  kSse2 = 1,    // x86-64 baseline 4-wide.
  kAvx2 = 2,    // 8-wide, runtime-detected.
  kNeon = 3,    // aarch64 baseline 4-wide.
};

const char* SimdLevelName(SimdLevel level);

// The level all kernels currently dispatch to.
SimdLevel ActiveSimdLevel();

// Every level this build + CPU can execute, in ascending order (always starts with
// kScalar). Parity tests sweep this list.
std::vector<SimdLevel> SupportedSimdLevels();

// The level TOTORO_SIMD selects, read now: unset = the best level the CPU supports; a
// known level the CPU lacks clamps to that best level; any other value CHECK-fails
// with the accepted values. The dispatch table resolves through this on first use.
SimdLevel ResolveSimdLevelFromEnv();

// Forces a dispatch level (clamped to supported ones; returns the level actually
// installed). Pass ActiveSimdLevel()'s saved value to restore. Not thread-safe
// against concurrent kernel calls — tests only.
SimdLevel SetSimdLevelForTest(SimdLevel level);

// y[i] += alpha * x[i]
void KAxpy(float alpha, const float* x, float* y, size_t n);
// Register-blocked 4-row axpy: per element, y[i] += alpha[0]*x0[i]; then
// += alpha[1]*x1[i]; += alpha[2]*x2[i]; += alpha[3]*x3[i] — each term its own
// mul + add, in that order, i.e. EXACTLY the op sequence of four consecutive KAxpy
// calls, but with one y load/store pass instead of four. The matmul wrappers in
// tensor.cc use it to cut output-row memory traffic 4x without moving a single
// rounding. y must not alias any x row.
void KAxpy4(const float alpha[4], const float* x0, const float* x1, const float* x2,
            const float* x3, float* y, size_t n);
// y[i] += alpha * float(q[i])   (dequantize-free int8 row accumulation: the per-row
// quantization scale is folded into alpha, so the int8 payload is consumed directly).
void KAxpyI8(float alpha, const int8_t* q, float* y, size_t n);
// x[i] *= alpha
void KScale(float* x, float alpha, size_t n);
// x[i] = max(x[i], 0) with std::max(v, 0.0f) semantics: -0.0 and NaN pass through.
void KRelu(float* x, size_t n);
// grad[i] = act[i] <= 0 ? 0 : grad[i]   (ReLU backward mask; NaN act keeps grad).
void KReluMask(const float* act, float* grad, size_t n);
// w[i] = (1 - alpha) * w[i] + alpha * p[i]   (FedAsync mixing).
void KLerp(float* w, const float* p, float alpha, size_t n);
// max over x (exact under any association; NaN inputs are not supported).
float KMax(const float* x, size_t n);
// x[i] /= denom
void KDiv(float* x, float denom, size_t n);

// In-place softmax over x[0..n): vectorized max, scalar exp + sequential sum (the sum
// order is part of the fingerprinted numerics), vectorized divide.
void KSoftmax(float* x, size_t n);

}  // namespace totoro

#endif  // SRC_ML_KERNELS_H_
