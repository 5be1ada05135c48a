// AVX2/FMA micro-kernels for the GEMM layer. This translation unit is the
// only one compiled with -mavx2 -mfma (see CMakeLists.txt), so the rest of
// the binary keeps the baseline ISA; dispatch happens at runtime via
// __builtin_cpu_supports, and gemm.cc falls back to the bit-identical
// portable kernels when either the compile-time or the runtime check fails.

#include "nn/gemm.hh"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace puffer::nn::detail {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

/// One (MR x kPanelWidth) register tile: 2*MR ymm accumulators, the whole
/// k loop in registers, bias/ReLU epilogue fused into the writeback. Each
/// output element accumulates over p = 0..k-1 in ascending order through a
/// single fused-multiply-add chain — the same order for every MR, which is
/// what makes row results independent of batch size and tile position (the
/// batched==scalar bitwise contract). The epilogue is an IEEE add + max per
/// element, bit-identical to the portable fallback's scalar epilogue.
/// TransposedA reads A's element (r, p) at a[p * lda + r].
template <size_t MR, bool TransposedA>
void kernel_avx2(const float* a, const size_t lda, const float* panel,
                 const size_t k, float* c, const size_t ldc, const size_t nc,
                 const float* bias, const bool relu) {
  __m256 acc[MR][2];
  for (size_t r = 0; r < MR; r++) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (size_t p = 0; p < k; p++) {
    const __m256 b0 = _mm256_loadu_ps(panel + p * kPanelWidth);
    const __m256 b1 = _mm256_loadu_ps(panel + p * kPanelWidth + 8);
    for (size_t r = 0; r < MR; r++) {
      const __m256 av =
          _mm256_set1_ps(TransposedA ? a[p * lda + r] : a[r * lda + p]);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  if (nc == kPanelWidth) {
    __m256 bias0 = _mm256_setzero_ps();
    __m256 bias1 = _mm256_setzero_ps();
    if (bias != nullptr) {
      bias0 = _mm256_loadu_ps(bias);
      bias1 = _mm256_loadu_ps(bias + 8);
    }
    const __m256 zero = _mm256_setzero_ps();
    for (size_t r = 0; r < MR; r++) {
      __m256 v0 = acc[r][0];
      __m256 v1 = acc[r][1];
      if (bias != nullptr) {
        v0 = _mm256_add_ps(v0, bias0);
        v1 = _mm256_add_ps(v1, bias1);
      }
      if (relu) {
        v0 = _mm256_max_ps(v0, zero);
        v1 = _mm256_max_ps(v1, zero);
      }
      _mm256_storeu_ps(c + r * ldc, v0);
      _mm256_storeu_ps(c + r * ldc + 8, v1);
    }
  } else {
    // Tail panel (at most one per output matrix): spill the tile and apply
    // the epilogue scalar-wise over the valid columns.
    for (size_t r = 0; r < MR; r++) {
      float tmp[kPanelWidth];
      _mm256_storeu_ps(tmp, acc[r][0]);
      _mm256_storeu_ps(tmp + 8, acc[r][1]);
      for (size_t col = 0; col < nc; col++) {
        float v = tmp[col];
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
}

constexpr KernelTable kAvx2Kernels{
    {&kernel_avx2<1, false>, &kernel_avx2<2, false>, &kernel_avx2<3, false>,
     &kernel_avx2<4, false>},
    {&kernel_avx2<1, true>, &kernel_avx2<2, true>, &kernel_avx2<3, true>,
     &kernel_avx2<4, true>}};

bool cpu_supports_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

const KernelTable* avx2_kernel_table() {
  static const bool supported = cpu_supports_avx2_fma();
  return supported ? &kAvx2Kernels : nullptr;
}

#else  // !(__AVX2__ && __FMA__)

const KernelTable* avx2_kernel_table() {
  return nullptr;
}

#endif

}  // namespace puffer::nn::detail
