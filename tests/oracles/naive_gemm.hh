#ifndef PUFFER_TESTS_ORACLES_NAIVE_GEMM_HH
#define PUFFER_TESTS_ORACLES_NAIVE_GEMM_HH

#include "nn/matrix.hh"

namespace puffer::oracle {

/// ---------------------------------------------------------------------------
/// Naive reference kernels — the seed implementation, kept verbatim as the
/// correctness oracle for the GEMM property tests and as the baseline the
/// nn_kernels speedups are measured against. Same shapes and resizing as
/// nn::matmul, nn::matmul_bt and nn::matmul_at.
/// ---------------------------------------------------------------------------
void naive_matmul(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix& out);
void naive_matmul_bt(const nn::Matrix& a, const nn::Matrix& b,
                     nn::Matrix& out);
void naive_matmul_at(const nn::Matrix& a, const nn::Matrix& b,
                     nn::Matrix& out);

}  // namespace puffer::oracle

#endif  // PUFFER_TESTS_ORACLES_NAIVE_GEMM_HH
