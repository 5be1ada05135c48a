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
template <size_t MR, bool TransposedA>
void kernel_portable(const float* a, const size_t lda, const float* panel,
                     const size_t k, float* c, const size_t ldc,
                     const size_t nc, const float* bias, const bool relu) {
  float acc[MR][kPanelWidth] = {};
  for (size_t p = 0; p < k; p++) {
    const float* brow = panel + p * kPanelWidth;
    for (size_t r = 0; r < MR; r++) {
      const float av = TransposedA ? a[p * lda + r] : a[r * lda + p];
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
    {&kernel_portable<1, false>, &kernel_portable<2, false>,
     &kernel_portable<3, false>, &kernel_portable<4, false>},
    {&kernel_portable<1, true>, &kernel_portable<2, true>,
     &kernel_portable<3, true>, &kernel_portable<4, true>}};

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
  data_.resize(num_panels() * k_ * kPanelWidth);
  // Each panel row is one contiguous slice of a row of b: kPanelWidth
  // floats, fewer in the tail panel, whose padding lanes are zeroed after.
  for (size_t index = 0; index < num_panels(); index++) {
    const size_t j0 = index * kPanelWidth;
    const size_t nc = std::min(kPanelWidth, n_ - j0);
    const float* src = b.data() + j0;
    float* dst = data_.data() + index * k_ * kPanelWidth;
    for (size_t p = 0; p < k_; p++) {
      std::copy_n(src + p * n_, nc, dst + p * kPanelWidth);
    }
  }
  zero_padding();
}

void PackedMatrix::pack_from_transposed(const Matrix& bt) {
  const obs::ProfScope pack_scope{"nn.gemm.pack"};
  k_ = bt.cols();
  n_ = bt.rows();
  data_.resize(num_panels() * k_ * kPanelWidth);
  for (size_t j = 0; j < n_; j++) {
    const float* btrow = bt.data() + j * k_;
    float* panel = data_.data() + (j / kPanelWidth) * k_ * kPanelWidth +
                   j % kPanelWidth;
    for (size_t p = 0; p < k_; p++) {
      panel[p * kPanelWidth] = btrow[p];
    }
  }
  zero_padding();
}

void PackedMatrix::zero_padding() {
  const size_t nc = n_ % kPanelWidth;
  if (nc == 0) {
    return;
  }
  float* tail = data_.data() + (num_panels() - 1) * k_ * kPanelWidth;
  for (size_t p = 0; p < k_; p++) {
    std::fill(tail + p * kPanelWidth + nc, tail + (p + 1) * kPanelWidth,
              0.0f);
  }
}

namespace {

/// gemm() over either A layout: a[r * lda + p], or with `transposed_a`,
/// a[p * lda + r].
void run_gemm(const float* a, const size_t lda, const bool transposed_a,
              const size_t m, const PackedMatrix& b, Matrix& out,
              const Epilogue epilogue, const std::span<const float> bias) {
  const size_t k = b.k();
  const size_t n = b.n();
  if (epilogue != Epilogue::kNone) {
    require(bias.size() == n, "gemm: bias length mismatch");
  }
  out.resize_no_zero(m, n);
  const obs::ProfScope kernel_scope{"nn.gemm"};
  const detail::KernelTable& kernels = active_kernels();
  const detail::GemmKernelFn* fn =
      transposed_a ? kernels.fn_transposed_a : kernels.fn;
  const size_t tile_stride = transposed_a ? 1 : lda;
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
      fn[mr - 1](a + i0 * tile_stride, lda, panel, k, out.data() + i0 * n + j0,
                 n, nc, panel_bias, relu);
    }
  }
}

}  // namespace

void gemm(const float* a, const size_t lda, const size_t m,
          const PackedMatrix& b, Matrix& out, const Epilogue epilogue,
          const std::span<const float> bias) {
  run_gemm(a, lda, false, m, b, out, epilogue, bias);
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

Matrix& product_scratch() {
  thread_local Matrix scratch;
  return scratch;
}

/// Register tiles one gemm() call runs for an (m x n) output.
size_t kernel_tiles(const size_t m, const size_t n) {
  return ((m + kRowTile - 1) / kRowTile) *
         ((n + kPanelWidth - 1) / kPanelWidth);
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
  const size_t m = a.cols();  // output rows
  const size_t n = b.cols();  // output columns
  // out = a^T b, or out^T = b^T a written back transposed. Either way
  // out[i][j] is one ascending-p FMA chain over a[p][i] * b[p][j], and a
  // product commutes exactly, so both give the same bits. The kernels read
  // the transposed operand in place. Take the orientation with fewer
  // register tiles; on a tie, skip the write-back. For the TTP's last layer
  // (m = 64, n = 21) that puts b, the backward pass's delta, in the
  // broadcast operand. The delta holds the loss gradient's rare subnormals,
  // which slow every FMA they enter: a packed one enters one FMA per row of
  // a^T, a broadcast one two per panel of a.
  PackedMatrix& packed = pack_scratch();
  if (kernel_tiles(n, m) < kernel_tiles(m, n)) {
    packed.pack_from(a);
    Matrix& product = product_scratch();
    run_gemm(b.data(), n, true, n, packed, product, Epilogue::kNone, {});
    out.resize_no_zero(m, n);
    for (size_t j = 0; j < n; j++) {
      for (size_t i = 0; i < m; i++) {
        out.data()[i * n + j] = product.data()[j * m + i];
      }
    }
  } else {
    packed.pack_from(b);
    run_gemm(a.data(), m, true, m, packed, out, Epilogue::kNone, {});
  }
}

}  // namespace puffer::nn
