#ifndef PUFFER_UTIL_SIMD_HH
#define PUFFER_UTIL_SIMD_HH

namespace puffer::util {

/// The one process-wide switch every SIMD dispatcher reads: nn::gemm's
/// micro-kernels and abr::StochasticMpc's backward sweep. Each dispatcher's
/// AVX2 path is bit-identical to its portable path, so the switch never
/// changes a result; it only selects which of two equal implementations
/// runs. Tests force the portable paths to audit that contract, and benches
/// to time both. Flip it only in single-threaded setup.
void set_force_portable(bool force);

/// True while set_force_portable(true) is in effect.
[[nodiscard]] bool force_portable();

}  // namespace puffer::util

#endif  // PUFFER_UTIL_SIMD_HH
