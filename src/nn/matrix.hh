#ifndef PUFFER_NN_MATRIX_HH
#define PUFFER_NN_MATRIX_HH

#include <cstddef>
#include <span>
#include <vector>

namespace puffer::nn {

/// Dense row-major float matrix. The only tensor type in this library: the
/// TTP and Pensieve networks are small MLPs, so a simple cache-friendly
/// matrix with auto-vectorizable loops is all that is needed.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, float fill = 0.0f);

  [[nodiscard]] size_t rows() const { return rows_; }
  [[nodiscard]] size_t cols() const { return cols_; }
  [[nodiscard]] size_t size() const { return data_.size(); }

  float& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  [[nodiscard]] std::span<float> row(size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  void fill(float value);
  /// Reshape and zero-fill. Capacity is kept when the new shape fits, so a
  /// warm buffer resized to the same (or smaller) shape never reallocates —
  /// use this when the caller accumulates into the matrix.
  void resize(size_t rows, size_t cols);
  /// Reshape WITHOUT zero-filling: existing element values are unspecified.
  /// For outputs that are fully overwritten (GEMM results, staging copies);
  /// skips the zero-fill pass that resize() pays on every call.
  void resize_no_zero(size_t rows, size_t cols);

  /// this += other (elementwise; shapes must match).
  void add_inplace(const Matrix& other);
  /// this *= scalar.
  void scale_inplace(float factor);

  bool operator==(const Matrix& other) const = default;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

/// out = a * b. Shapes: (m x k) * (k x n) -> (m x n). `out` is resized.
/// Backed by the kernel layer in gemm.hh (as are the transposed variants);
/// the seed's naive loops are the tests' oracle (tests/oracles/naive_gemm.hh).
void matmul(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * b^T. Shapes: (m x k) * (n x k) -> (m x n).
void matmul_bt(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a^T * b. Shapes: (k x m) * (k x n) -> (m x n).
void matmul_at(const Matrix& a, const Matrix& b, Matrix& out);

/// Add row-vector `bias` (length = out.cols()) to every row of `out`.
void add_row_bias(Matrix& out, std::span<const float> bias);

}  // namespace puffer::nn

#endif  // PUFFER_NN_MATRIX_HH
