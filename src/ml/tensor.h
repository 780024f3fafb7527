// Minimal dense linear algebra for the FL substrate.
//
// Row-major float matrices with exactly the operations MLP forward/backward needs.
// Deliberately simple — the evaluation's claims depend on round/communication structure,
// not on BLAS throughput — but the math is real: models genuinely train.
#ifndef SRC_ML_TENSOR_H_
#define SRC_ML_TENSOR_H_

#include <cstddef>
#include <span>
#include <vector>

namespace totoro {

class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  float& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  std::span<float> row(size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const float> row(size_t r) const { return {data_.data() + r * cols_, cols_}; }
  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  void Fill(float v);

  // Reshape to rows x cols, reallocating only when the element count grows.
  // Contents are unspecified afterwards; callers must fully overwrite.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

// out[m x n] = a[m x k] * b[k x n].
void MatMul(const Matrix& a, const Matrix& b, Matrix& out);
// out[k x n] += a^T[k x m] * b[m x n]   (gradient of weights).
void MatTMulAdd(const Matrix& a, const Matrix& b, Matrix& out);
// out[m x k] = a[m x n] * b^T[k x n]^T  i.e. a * transpose(b) (gradient of inputs).
void MulMatT(const Matrix& a, const Matrix& b, Matrix& out);
// Same, but reuses `bt_scratch` for the internal transpose of b so a hot caller
// (e.g. the MLP backward pass) avoids reallocating it every step.
void MulMatT(const Matrix& a, const Matrix& b, Matrix& out, Matrix& bt_scratch);

// y += alpha * x (sizes must match).
void Axpy(float alpha, std::span<const float> x, std::span<float> y);
void Scale(std::span<float> x, float alpha);

// In-place ReLU and its backward mask application: grad *= (activation > 0).
void ReluInPlace(Matrix& m);
void ReluBackward(const Matrix& activation, Matrix& grad);

// Row-wise softmax in place.
void SoftmaxRows(Matrix& m);

}  // namespace totoro

#endif  // SRC_ML_TENSOR_H_
