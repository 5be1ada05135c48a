// The backward sweep's inner loops (StochasticMpc::plan), written once and
// compiled twice: by mpc.cc at the baseline ISA and by mpc_avx2.cc with
// -mavx2 -ffp-contract=off. Only those two files include this one.
//
// Both loops run over the reachable bins of one step, and the rungs of a
// bin are the lanes: a [bin][rung] row of the planes (RungLanes) is three
// 4-double GCC vectors, which the baseline copy lowers to SSE2 pairs and
// the AVX2 copy to single ymm operations. Plain loops over ten rungs stayed
// scalar. Vector arithmetic is lane-wise IEEE arithmetic, so each lane
// performs the same operations in the same order at either ISA, and without
// contraction there is no fused multiply-add: both copies give the same
// bits. Scalars are splatted and the max's select is an integer-mask blend,
// both spelled out, so the code keeps to the vector operations GCC and
// clang share.
//
// Everything here has internal linkage and calls no library function, so
// each of the two translation units keeps its own copy. An inline function
// or template shared by both would be one ODR symbol, and the linker could
// keep the AVX2 copy for a host without AVX2. The planes passed in never
// overlap, so they are __restrict.

#ifndef PUFFER_ABR_MPC_SWEEP_HH
#define PUFFER_ABR_MPC_SWEEP_HH

#include <limits>

#include "abr/mpc.hh"

namespace puffer::abr::detail {
namespace {

/// Four lanes of a RungLanes row. may_alias: the planes are doubles.
typedef double Lanes4 __attribute__((vector_size(32), may_alias));
/// A lane comparison's result: all ones where true, zero where false.
using Mask4 = decltype(Lanes4{} < Lanes4{});
constexpr int kVectors = kRungLanes / 4;

/// best = the lanes of `value` where best < value, else best's own: the
/// running max's step as a bit blend, so a NaN or a tie never replaces best.
/// (References: a 32-byte vector passed by value changes the baseline ABI.)
void keep_larger(Lanes4& best, const Lanes4& value) {
  const Mask4 take = best < value;
  best = reinterpret_cast<Lanes4>((reinterpret_cast<Mask4>(best) & ~take) |
                                  (reinterpret_cast<Mask4>(value) & take));
}

const Lanes4* lanes_of(const RungLanes& row) {
  return reinterpret_cast<const Lanes4*>(row.lane);
}

Lanes4* lanes_of(RungLanes& row) {
  return reinterpret_cast<Lanes4*>(row.lane);
}

/// out[prev] = max over actions a, in ascending order, of
/// switch_penalty[a][prev] + expect[a]. A value replaces the running one
/// only when strictly larger (std::max's rule), which fixes which of two
/// tied values (+0.0 and -0.0) is kept.
void maximize_bin(RungLanes& out, const RungLanes& expect,
                  const RungLanes* const switch_penalty) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  Lanes4 best[kVectors];
  for (int v = 0; v < kVectors; v++) {
    best[v] = Lanes4{kNegInf, kNegInf, kNegInf, kNegInf};
  }
  for (int action = 0; action < media::kNumRungs; action++) {
    const double e = expect.lane[action];
    const Lanes4 value_of_action{e, e, e, e};
    const Lanes4* const penalty = lanes_of(switch_penalty[action]);
    for (int v = 0; v < kVectors; v++) {
      keep_larger(best[v], penalty[v] + value_of_action);
    }
  }
  Lanes4* const lanes = lanes_of(out);
  for (int v = 0; v < kVectors; v++) {
    lanes[v] = best[v];
  }
}

/// A merged step, bin by bin: every rung adds the rows in order as
/// p * (V[next] - mu * stall) from +0.0, then the bin is maximized. A rung
/// without an outcome on a row has p = 0 there, and adding 0 * (finite)
/// leaves its sum unchanged.
void sweep_rows(RungLanes* __restrict const value_cur,
                const RungLanes* __restrict const value_next,
                const MergedRow* const rows, const int num_rows,
                const RungLanes* const switch_penalty, const SweepBins& at) {
  for (int i = 0; i < at.count; i++) {
    const int b = at.bins[i];
    const double buffer_s = b * at.bin_s;
    Lanes4 sum[kVectors] = {};
    for (int r = 0; r < num_rows; r++) {
      const MergedRow& row = rows[r];
      const double stall =
          row.time_s > buffer_s ? row.time_s - buffer_s : 0.0;
      const double cost = at.mu * stall;
      const Lanes4 stall_cost{cost, cost, cost, cost};
      const Lanes4* const p = lanes_of(row.probability);
      const Lanes4* const value = lanes_of(value_next[row.next_bin[b]]);
      for (int v = 0; v < kVectors; v++) {
        sum[v] += p[v] * (value[v] - stall_cost);
      }
    }
    RungLanes expect;
    Lanes4* const lanes = lanes_of(expect);
    for (int v = 0; v < kVectors; v++) {
      lanes[v] = sum[v];
    }
    maximize_bin(value_cur[b], expect, switch_penalty);
  }
}

/// A step folded per rung by the caller: expect[i] holds the i-th bin's.
void maximize(RungLanes* __restrict const value_cur,
              const RungLanes* __restrict const expect,
              const RungLanes* const switch_penalty, const SweepBins& at) {
  for (int i = 0; i < at.count; i++) {
    maximize_bin(value_cur[at.bins[i]], expect[i], switch_penalty);
  }
}

constexpr SweepKernels kSweepKernels{&sweep_rows, &maximize};

}  // namespace
}  // namespace puffer::abr::detail

#endif  // PUFFER_ABR_MPC_SWEEP_HH
