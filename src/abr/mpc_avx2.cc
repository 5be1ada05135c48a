// The AVX2 copy of StochasticMpc's backward sweep (abr/mpc_sweep.hh). This
// translation unit is compiled with -mavx2 -ffp-contract=off and without
// -mfma (see CMakeLists.txt): contraction into fused multiply-adds would
// change the bits, and the baseline copy in mpc.cc has none. It does no
// cpuid check itself, so no AVX2 instruction runs before mpc.cc's check.

#include "abr/mpc.hh"

#if defined(__AVX2__)
#include "abr/mpc_sweep.hh"
#endif

namespace puffer::abr::detail {

#if defined(__AVX2__)

const SweepKernels* avx2_sweep_kernels() {
  return &kSweepKernels;
}

#else  // !__AVX2__

const SweepKernels* avx2_sweep_kernels() {
  return nullptr;
}

#endif

}  // namespace puffer::abr::detail
