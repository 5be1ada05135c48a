#include "oracles/naive_gemm.hh"

#include "util/require.hh"

namespace puffer::oracle {

using nn::Matrix;

void naive_matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  require(a.cols() == b.rows(), "naive_matmul: inner dimensions must match");
  out.resize(a.rows(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (size_t i = 0; i < m; i++) {
    float* out_row = out.data() + i * n;
    const float* a_row = a.data() + i * k;
    for (size_t p = 0; p < k; p++) {
      const float a_ip = a_row[p];
      const float* b_row = b.data() + p * n;
      for (size_t j = 0; j < n; j++) {
        out_row[j] += a_ip * b_row[j];
      }
    }
  }
}

void naive_matmul_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  require(a.cols() == b.cols(), "naive_matmul_bt: inner dimensions must match");
  out.resize(a.rows(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (size_t i = 0; i < m; i++) {
    const float* a_row = a.data() + i * k;
    for (size_t j = 0; j < n; j++) {
      const float* b_row = b.data() + j * k;
      float acc = 0.0f;
      for (size_t p = 0; p < k; p++) {
        acc += a_row[p] * b_row[p];
      }
      out.at(i, j) = acc;
    }
  }
}

void naive_matmul_at(const Matrix& a, const Matrix& b, Matrix& out) {
  require(a.rows() == b.rows(), "naive_matmul_at: inner dimensions must match");
  out.resize(a.cols(), b.cols());
  const size_t m = a.cols(), k = a.rows(), n = b.cols();
  for (size_t p = 0; p < k; p++) {
    const float* a_row = a.data() + p * m;
    const float* b_row = b.data() + p * n;
    for (size_t i = 0; i < m; i++) {
      const float a_pi = a_row[i];
      float* out_row = out.data() + i * n;
      for (size_t j = 0; j < n; j++) {
        out_row[j] += a_pi * b_row[j];
      }
    }
  }
}

}  // namespace puffer::oracle
