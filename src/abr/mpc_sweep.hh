// The backward sweep's inner loops (StochasticMpc::plan), written once and
// compiled twice: by mpc.cc at the baseline ISA and by mpc_avx2.cc with
// -mavx2 -ffp-contract=off. Only those two files include this one.
//
// Everything here has internal linkage and calls no library function, so
// each of the two translation units keeps its own copy. An inline function
// or template shared by both would be one ODR symbol, and the linker could
// keep the AVX2 copy for a host without AVX2. Each loop performs the same
// IEEE operations per bin in the same order at either ISA, and without
// contraction there is no fused multiply-add, so both copies give the same
// bits. The planes passed in never overlap, so the pointers are
// __restrict: that only drops the runtime overlap checks in front of each
// vectorized loop.

#ifndef PUFFER_ABR_MPC_SWEEP_HH
#define PUFFER_ABR_MPC_SWEEP_HH

#include <cstdint>
#include <limits>

#include "abr/mpc.hh"

namespace puffer::abr::detail {
namespace {

/// base[b] += p * (V[next_bin[b]] - mu * stall(b)) over the row's three
/// runs: one value over the stall run, the row shifted over the shift run,
/// and a per-bin gather only over the tail.
void fold_outcome(double* __restrict const base,
                  const double* __restrict const value_row,
                  const uint16_t* const next_bin, const NextBinRuns runs,
                  const double t, const double p, const SweepGrid& grid) {
  // The stall cost of a bin that does not stall, as the per-bin expression
  // computes it (mu * 0.0), so the shift run adds the same bits.
  const double no_stall_cost = grid.mu * 0.0;
  const double stalled_value = value_row[next_bin[0]];
  for (int b = 0; b < runs.stall_end; b++) {
    const double buffer_s = b * grid.bin_s;
    base[b] += p * (stalled_value - grid.mu * (t - buffer_s));
  }
  for (int b = runs.stall_end; b < runs.shift_end; b++) {
    base[b] += p * (value_row[b + runs.shift] - no_stall_cost);
  }
  for (int b = runs.shift_end; b < grid.bins; b++) {
    const double buffer_s = b * grid.bin_s;
    const double stall = t > buffer_s ? t - buffer_s : 0.0;
    base[b] += p * (value_row[next_bin[b]] - grid.mu * stall);
  }
}

/// One V row per previous rung. Actions go in ascending order and a value
/// replaces the running one only when strictly larger (std::max's rule),
/// which fixes which of two tied values (+0.0 and -0.0) is kept.
void maximize_rows(double* __restrict const value_cur,
                   const double* __restrict const expect_base,
                   const double* const switch_penalty, const int bins) {
  constexpr int R = media::kNumRungs;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  for (int prev = 0; prev < R; prev++) {
    double* const out_row = value_cur + prev * bins;
    for (int b = 0; b < bins; b++) {
      out_row[b] = kNegInf;
    }
    for (int action = 0; action < R; action++) {
      const double switch_value = switch_penalty[action * R + prev];
      const double* const base = expect_base + action * bins;
      for (int b = 0; b < bins; b++) {
        const double value = switch_value + base[b];
        out_row[b] = out_row[b] < value ? value : out_row[b];
      }
    }
  }
}

constexpr SweepKernels kSweepKernels{&fold_outcome, &maximize_rows};

}  // namespace
}  // namespace puffer::abr::detail

#endif  // PUFFER_ABR_MPC_SWEEP_HH
