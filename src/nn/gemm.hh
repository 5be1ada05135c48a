#ifndef PUFFER_NN_GEMM_HH
#define PUFFER_NN_GEMM_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "nn/matrix.hh"

namespace puffer::nn {

/// ---------------------------------------------------------------------------
/// Dedicated GEMM kernel layer. Every NN forward/backward pass in the repo
/// (Fugu's TTP inference and nightly retraining, the Pensieve actor/critic)
/// funnels through these kernels, so they are written for throughput:
///
///  * B is packed once into panel-major layout (kPanelWidth columns per
///    panel, k-major inside a panel, zero-padded) so the micro-kernel
///    streams it sequentially;
///  * the micro-kernel holds a kRowTile x kPanelWidth register tile of the
///    output and runs the whole k loop in registers (fused multiply-add);
///  * bias and ReLU epilogues are fused into the writeback, so an MLP layer
///    is one kernel call instead of matmul + add_row_bias + relu passes.
///
/// Determinism contract: out[i][j] accumulates over p = 0..k-1 in strictly
/// ascending order into a single fused-multiply-add accumulator, regardless
/// of batch size, tile shape, thread count, or SIMD path. The AVX2/FMA path
/// and the portable fallback (std::fmaf, same blocking) are bit-identical;
/// results are reproducible run to run on any machine. This is what keeps
/// the repo's batched==scalar and fleet==sequential bitwise audits green.
/// ---------------------------------------------------------------------------

/// Columns per packed panel (the micro-kernel's N register width).
inline constexpr size_t kPanelWidth = 16;
/// Output rows per register tile (the micro-kernel's M width).
inline constexpr size_t kRowTile = 4;

/// A matrix packed for use as the B operand of gemm(): columns grouped into
/// panels of kPanelWidth, each panel stored k-major and contiguous
/// (panel p-th row holds B[p][j0..j0+15]), zero-padded to full width. Mlp
/// packs each weight matrix once and reuses it across every forward call.
class PackedMatrix {
 public:
  /// Pack b (k x n, row-major).
  void pack_from(const Matrix& b);
  /// Pack bt^T where bt is (n x k): equivalent to pack_from(transpose(bt))
  /// without materializing the transpose. Used for delta * W^T in backprop.
  void pack_from_transposed(const Matrix& bt);

  [[nodiscard]] size_t k() const { return k_; }
  [[nodiscard]] size_t n() const { return n_; }
  [[nodiscard]] size_t num_panels() const {
    return (n_ + kPanelWidth - 1) / kPanelWidth;
  }
  [[nodiscard]] const float* panel(const size_t index) const {
    return data_.data() + index * k_ * kPanelWidth;
  }

 private:
  /// Zero the tail panel's lanes past n: the kernels multiply them too, and
  /// a stale subnormal there would slow every FMA it enters.
  void zero_padding();

  size_t k_ = 0;
  size_t n_ = 0;
  std::vector<float> data_;
};

/// Fused epilogue applied during the writeback of a gemm() call.
enum class Epilogue {
  kNone,      ///< out = a * B
  kBias,      ///< out = a * B + bias (row vector, length n)
  kBiasRelu,  ///< out = max(a * B + bias, 0)
};

/// out(m x n) = a(m x k) * B, with `a` given as a raw row-major pointer with
/// row stride `lda` (>= k). `out` is resized without zero-filling (every
/// element is overwritten). `bias` must have length n for the bias epilogues.
void gemm(const float* a, size_t lda, size_t m, const PackedMatrix& b,
          Matrix& out, Epilogue epilogue = Epilogue::kNone,
          std::span<const float> bias = {});

/// Convenience overload for a Matrix A operand.
void gemm(const Matrix& a, const PackedMatrix& b, Matrix& out,
          Epilogue epilogue = Epilogue::kNone,
          std::span<const float> bias = {});

/// True when the AVX2/FMA micro-kernels were compiled in AND the running CPU
/// supports them. The portable fallback is bit-identical either way, and
/// util::set_force_portable(true) selects it even when SIMD is available.
[[nodiscard]] bool gemm_simd_available();

/// "avx2" or "portable" — whichever path gemm() will actually run.
[[nodiscard]] std::string gemm_active_path();

namespace detail {

/// Micro-kernel ABI: compute an (mr x nc) output tile (nc <= kPanelWidth)
/// from mr rows of A (row stride lda) and one packed panel, writing straight
/// into the output matrix (row stride ldc) with the epilogue fused:
/// `bias` (pre-offset to this panel's columns, or nullptr) is added and, if
/// `relu`, the result is clamped at zero. mr = table index + 1.
/// A's element (r, p) is a[r * lda + p]; a kernel in `fn_transposed_a`
/// reads it at a[p * lda + r] instead, so A^T's storage (k x mr and wider,
/// row stride lda) serves as A without a transposed copy.
using GemmKernelFn = void (*)(const float* a, size_t lda, const float* panel,
                              size_t k, float* c, size_t ldc, size_t nc,
                              const float* bias, bool relu);

struct KernelTable {
  GemmKernelFn fn[kRowTile];
  GemmKernelFn fn_transposed_a[kRowTile];
};

/// Defined in gemm_avx2.cc; returns nullptr when the AVX2/FMA kernels were
/// not compiled in (non-x86 target or unsupported compiler flags).
const KernelTable* avx2_kernel_table();

}  // namespace detail

}  // namespace puffer::nn

#endif  // PUFFER_NN_GEMM_HH
