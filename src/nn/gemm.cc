#include "nn/gemm.hh"

#include <algorithm>
#include <cmath>

#include "obs/prof.hh"
#include "util/require.hh"
#include "util/simd.hh"

namespace puffer::nn {

namespace {

/// Portable micro-kernel: the exact blocking of the AVX2 kernel with
/// std::fmaf standing in for vfmaddps lane-for-lane. fmaf is the IEEE-754
/// fused multiply-add (single rounding), so the two paths are bit-identical;
/// on x86-64 glibc lowers it to the hardware instruction when available.
/// The epilogue (IEEE add + max, elementwise) also matches exactly.
template <size_t MR>
void kernel_portable(const float* a, const size_t lda, const float* panel,
                     const size_t k, float* c, const size_t ldc,
                     const size_t nc, const float* bias, const bool relu) {
  float acc[MR][kPanelWidth] = {};
  for (size_t p = 0; p < k; p++) {
    const float* brow = panel + p * kPanelWidth;
    for (size_t r = 0; r < MR; r++) {
      const float av = a[r * lda + p];
      for (size_t col = 0; col < kPanelWidth; col++) {
        acc[r][col] = std::fmaf(av, brow[col], acc[r][col]);
      }
    }
  }
  for (size_t r = 0; r < MR; r++) {
    for (size_t col = 0; col < nc; col++) {
      float v = acc[r][col];
      if (bias != nullptr) {
        v += bias[col];
      }
      if (relu) {
        v = v > 0.0f ? v : 0.0f;
      }
      c[r * ldc + col] = v;
    }
  }
}

constexpr detail::KernelTable kPortableKernels{
    {&kernel_portable<1>, &kernel_portable<2>, &kernel_portable<3>,
     &kernel_portable<4>}};

const detail::KernelTable& active_kernels() {
  if (!util::force_portable()) {
    const detail::KernelTable* simd = detail::avx2_kernel_table();
    if (simd != nullptr) {
      return *simd;
    }
  }
  return kPortableKernels;
}

}  // namespace

bool gemm_simd_available() {
  return detail::avx2_kernel_table() != nullptr;
}

std::string gemm_active_path() {
  return (&active_kernels() == &kPortableKernels) ? "portable" : "avx2";
}

void PackedMatrix::pack_from(const Matrix& b) {
  const obs::ProfScope pack_scope{"nn.gemm.pack"};
  k_ = b.rows();
  n_ = b.cols();
  data_.assign(num_panels() * k_ * kPanelWidth, 0.0f);
  for (size_t p = 0; p < k_; p++) {
    const float* brow = b.data() + p * n_;
    for (size_t j = 0; j < n_; j++) {
      data_[(j / kPanelWidth) * k_ * kPanelWidth + p * kPanelWidth +
            j % kPanelWidth] = brow[j];
    }
  }
}

void PackedMatrix::pack_from_transposed(const Matrix& bt) {
  const obs::ProfScope pack_scope{"nn.gemm.pack"};
  k_ = bt.cols();
  n_ = bt.rows();
  data_.assign(num_panels() * k_ * kPanelWidth, 0.0f);
  for (size_t j = 0; j < n_; j++) {
    const float* btrow = bt.data() + j * k_;
    float* panel = data_.data() + (j / kPanelWidth) * k_ * kPanelWidth +
                   j % kPanelWidth;
    for (size_t p = 0; p < k_; p++) {
      panel[p * kPanelWidth] = btrow[p];
    }
  }
}

void gemm(const float* a, const size_t lda, const size_t m,
          const PackedMatrix& b, Matrix& out, const Epilogue epilogue,
          const std::span<const float> bias) {
  const size_t k = b.k();
  const size_t n = b.n();
  if (epilogue != Epilogue::kNone) {
    require(bias.size() == n, "gemm: bias length mismatch");
  }
  out.resize_no_zero(m, n);
  const obs::ProfScope kernel_scope{"nn.gemm"};
  const detail::KernelTable& kernels = active_kernels();
  const bool relu = epilogue == Epilogue::kBiasRelu;
  // Panels outermost so one packed panel stays hot in L1 across every row
  // tile; the k loop runs entirely in registers inside the micro-kernel,
  // which also fuses the bias/ReLU epilogue into its writeback.
  for (size_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const float* panel = b.panel(j0 / kPanelWidth);
    const size_t nc = std::min(kPanelWidth, n - j0);
    const float* panel_bias =
        epilogue == Epilogue::kNone ? nullptr : bias.data() + j0;
    for (size_t i0 = 0; i0 < m; i0 += kRowTile) {
      const size_t mr = std::min(kRowTile, m - i0);
      kernels.fn[mr - 1](a + i0 * lda, lda, panel, k,
                         out.data() + i0 * n + j0, n, nc, panel_bias, relu);
    }
  }
}

void gemm(const Matrix& a, const PackedMatrix& b, Matrix& out,
          const Epilogue epilogue, const std::span<const float> bias) {
  require(a.cols() == b.k(), "gemm: inner dimensions must match");
  gemm(a.data(), a.cols(), a.rows(), b, out, epilogue, bias);
}

// ---------------------------------------------------------------------------
// Kernel-backed implementations of the generic matmul entry points declared
// in matrix.hh. The operand that plays B is packed into a thread-local
// scratch (capacity kept warm across calls, so steady-state packing is a
// copy, not an allocation).
// ---------------------------------------------------------------------------

namespace {

PackedMatrix& pack_scratch() {
  thread_local PackedMatrix scratch;
  return scratch;
}

std::vector<float>& transpose_scratch() {
  thread_local std::vector<float> scratch;
  return scratch;
}

}  // namespace

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  require(a.cols() == b.rows(), "matmul: inner dimensions must match");
  PackedMatrix& packed = pack_scratch();
  packed.pack_from(b);
  gemm(a.data(), a.cols(), a.rows(), packed, out);
}

void matmul_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  require(a.cols() == b.cols(), "matmul_bt: inner dimensions must match");
  PackedMatrix& packed = pack_scratch();
  packed.pack_from_transposed(b);
  gemm(a.data(), a.cols(), a.rows(), packed, out);
}

void matmul_at(const Matrix& a, const Matrix& b, Matrix& out) {
  require(a.rows() == b.rows(), "matmul_at: inner dimensions must match");
  const size_t k = a.rows();   // contraction length
  const size_t m = a.cols();   // output rows
  // Materialize a^T (m x k) into a thread-local scratch so the kernel reads
  // contiguous rows; the transpose copy is O(mk) against the O(mkn) GEMM.
  // It copies square tiles: one row of `a` at a time would write m
  // destinations k floats apart, and when k is a multiple of 256 (a full
  // training minibatch) those lines all map to a few L1 sets and evict each
  // other. A tile touches kTile lines on each side.
  constexpr size_t kTile = 16;
  std::vector<float>& at = transpose_scratch();
  at.resize(m * k);
  for (size_t i0 = 0; i0 < m; i0 += kTile) {
    const size_t i1 = std::min(i0 + kTile, m);
    for (size_t p0 = 0; p0 < k; p0 += kTile) {
      const size_t p1 = std::min(p0 + kTile, k);
      for (size_t i = i0; i < i1; i++) {
        float* at_row = at.data() + i * k;
        for (size_t p = p0; p < p1; p++) {
          at_row[p] = a.data()[p * m + i];
        }
      }
    }
  }
  PackedMatrix& packed = pack_scratch();
  packed.pack_from(b);
  gemm(at.data(), k, m, packed, out);
}

}  // namespace puffer::nn
