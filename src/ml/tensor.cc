#include "src/ml/tensor.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/ml/kernels.h"

namespace totoro {

void Matrix::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void MatMul(const Matrix& a, const Matrix& b, Matrix& out) {
  CHECK_EQ(a.cols(), b.rows());
  CHECK_EQ(out.rows(), a.rows());
  CHECK_EQ(out.cols(), b.cols());
  out.Fill(0.0f);
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    const auto arow = a.row(i);
    float* orow = out.row(i).data();
    size_t p = 0;
    // Blocks of four b-rows through KAxpy4 (one output pass per block). Per output
    // element the contributions still arrive in ascending-p order, one mul+add each,
    // so this is bit-identical to the sequential axpy loop. The zero-skip semantics
    // (a zero coefficient contributes nothing, exactly as before) force the scalar
    // fallback whenever a block contains a zero — rare for dense activations.
    for (; p + 4 <= k; p += 4) {
      const float al[4] = {arow[p], arow[p + 1], arow[p + 2], arow[p + 3]};
      if (al[0] != 0.0f && al[1] != 0.0f && al[2] != 0.0f && al[3] != 0.0f) {
        KAxpy4(al, b.row(p).data(), b.row(p + 1).data(), b.row(p + 2).data(),
               b.row(p + 3).data(), orow, n);
      } else {
        for (size_t q = 0; q < 4; ++q) {
          if (al[q] != 0.0f) {
            KAxpy(al[q], b.row(p + q).data(), orow, n);
          }
        }
      }
    }
    for (; p < k; ++p) {
      const float av = arow[p];
      if (av != 0.0f) {
        KAxpy(av, b.row(p).data(), orow, n);
      }
    }
  }
}

void MatTMulAdd(const Matrix& a, const Matrix& b, Matrix& out) {
  CHECK_EQ(a.rows(), b.rows());
  CHECK_EQ(out.rows(), a.cols());
  CHECK_EQ(out.cols(), b.cols());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  // Blocked over four examples (i): out.row(p) receives its i-contributions in the
  // same ascending order as the sequential loop, one mul+add per term, so the result
  // is bit-identical; the block shares one pass over out.row(p) instead of four.
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const auto ar0 = a.row(i);
    const auto ar1 = a.row(i + 1);
    const auto ar2 = a.row(i + 2);
    const auto ar3 = a.row(i + 3);
    const float* b0 = b.row(i).data();
    const float* b1 = b.row(i + 1).data();
    const float* b2 = b.row(i + 2).data();
    const float* b3 = b.row(i + 3).data();
    for (size_t p = 0; p < k; ++p) {
      const float al[4] = {ar0[p], ar1[p], ar2[p], ar3[p]};
      float* orow = out.row(p).data();
      if (al[0] != 0.0f && al[1] != 0.0f && al[2] != 0.0f && al[3] != 0.0f) {
        KAxpy4(al, b0, b1, b2, b3, orow, n);
      } else {
        // Preserve the zero-skip semantics exactly: skipped terms contribute
        // nothing, the rest land in ascending-i order.
        if (al[0] != 0.0f) {
          KAxpy(al[0], b0, orow, n);
        }
        if (al[1] != 0.0f) {
          KAxpy(al[1], b1, orow, n);
        }
        if (al[2] != 0.0f) {
          KAxpy(al[2], b2, orow, n);
        }
        if (al[3] != 0.0f) {
          KAxpy(al[3], b3, orow, n);
        }
      }
    }
  }
  for (; i < m; ++i) {
    const auto arow = a.row(i);
    const auto brow = b.row(i);
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) {
        continue;
      }
      KAxpy(av, brow.data(), out.row(p).data(), n);
    }
  }
}

void MulMatT(const Matrix& a, const Matrix& b, Matrix& out) {
  Matrix bt;
  MulMatT(a, b, out, bt);
}

void MulMatT(const Matrix& a, const Matrix& b, Matrix& out, Matrix& bt_scratch) {
  CHECK_EQ(a.cols(), b.cols());
  CHECK_EQ(out.rows(), a.rows());
  CHECK_EQ(out.cols(), b.rows());
  const size_t m = a.rows();
  const size_t n = a.cols();
  const size_t k = b.rows();
  // out[i][j] = dot(a.row(i), b.row(j)), but restructured: transpose b once (an exact
  // copy) and accumulate with c-outer axpys over unit-stride rows of b^T. For each
  // out[i][j] the contributions a[i][c]*b[j][c] still land in ascending-c order onto
  // one float accumulator — the same IEEE op sequence as the sequential dot, so the
  // result is bit-identical while the inner loop vectorizes.
  Matrix& bt = bt_scratch;
  bt.Resize(n, k);
  for (size_t j = 0; j < k; ++j) {
    const auto brow = b.row(j);
    for (size_t c = 0; c < n; ++c) {
      bt.at(c, j) = brow[c];
    }
  }
  out.Fill(0.0f);
  for (size_t i = 0; i < m; ++i) {
    const auto arow = a.row(i);
    float* orow = out.row(i).data();
    // No zero-skip anywhere here: the sequential dot added every a[i][c]*b[j][c]
    // term, and acc += ±0.0 is not always a bitwise no-op (it rounds -0.0 up to
    // +0.0). Blocked by four c's per output pass; ascending-c order is preserved.
    size_t c = 0;
    for (; c + 4 <= n; c += 4) {
      const float al[4] = {arow[c], arow[c + 1], arow[c + 2], arow[c + 3]};
      KAxpy4(al, bt.row(c).data(), bt.row(c + 1).data(), bt.row(c + 2).data(),
             bt.row(c + 3).data(), orow, k);
    }
    for (; c < n; ++c) {
      KAxpy(arow[c], bt.row(c).data(), orow, k);
    }
  }
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  CHECK_EQ(x.size(), y.size());
  KAxpy(alpha, x.data(), y.data(), x.size());
}

void Scale(std::span<float> x, float alpha) { KScale(x.data(), alpha, x.size()); }

void ReluInPlace(Matrix& m) { KRelu(m.data().data(), m.data().size()); }

void ReluBackward(const Matrix& activation, Matrix& grad) {
  CHECK_EQ(activation.size(), grad.size());
  KReluMask(activation.data().data(), grad.data().data(), grad.data().size());
}

void SoftmaxRows(Matrix& m) {
  for (size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    KSoftmax(row.data(), row.size());
  }
}

}  // namespace totoro
