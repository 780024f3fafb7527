// Inner-loop kernels for the model math hot path.
//
// Every kernel here is ELEMENTWISE (axpy / scale / relu / lerp / int8-axpy): each
// output element is computed by the same sequence of IEEE operations regardless of
// vector width. Each kernel is one plain loop in kernels.cc, compiled twice: for the
// build's baseline ISA (the compiler vectorizes it for SSE2 on x86-64, NEON on
// aarch64) and for AVX2. The compiler does the vectorizing, so no reduction is
// reassociated, and totoro_ml builds with -ffp-contract=off, so no mul + add is fused
// into an FMA on any ISA. Both levels are therefore bit-identical to the unfused
// reference. That is the contract that lets the training path vectorize while the
// committed bench fingerprints (bit-exact per seed) stay unchanged; the parity tests in
// tests/kernels_test.cc enforce it at every dispatch level.
//
// Reductions that would reassociate under vectorization (softmax's exp-sum) stay
// sequential, and so does softmax's row max, which is exact in any order but too short
// to be worth vectorizing. Backprop's MulMatT reduces nothing: it accumulates each
// output with axpys over a transposed copy of b, in ascending order (tensor.cc).
//
// Dispatch is resolved once at startup: AVX2 when the CPU has it, else scalar;
// overridable with the TOTORO_SIMD env knob (scalar|avx2) or SetSimdLevelForTest().
// Because both levels are bit-identical, the choice never affects simulation results —
// only wall-clock speed.
#ifndef SRC_ML_KERNELS_H_
#define SRC_ML_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace totoro {

enum class SimdLevel : int {
  kScalar = 0,  // The loops compiled for the build's baseline ISA (SSE2, NEON, ...).
  kAvx2 = 1,    // The same loops compiled for AVX2 (x86-64 only), runtime-detected.
};

const char* SimdLevelName(SimdLevel level);

// The level all kernels currently dispatch to.
SimdLevel ActiveSimdLevel();

// Every level this build + CPU can execute, in ascending order (always starts with
// kScalar). Parity tests sweep this list.
std::vector<SimdLevel> SupportedSimdLevels();

// The level TOTORO_SIMD selects, read now: unset = the best level the CPU supports;
// "avx2" on a CPU without AVX2 clamps to scalar; any other value CHECK-fails with the
// accepted values (scalar, avx2). The dispatch table resolves through this on first use.
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

// In-place softmax over x[0..n): sequential max, scalar exp + sequential sum (the sum
// order is part of the fingerprinted numerics), vectorized divide.
void KSoftmax(float* x, size_t n);

}  // namespace totoro

#endif  // SRC_ML_KERNELS_H_
