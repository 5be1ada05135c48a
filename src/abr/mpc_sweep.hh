// The plan's lane-wise loops (StochasticMpc::plan), written once and
// compiled twice: by mpc.cc at the baseline ISA and by mpc_avx2.cc with
// -mavx2 -ffp-contract=off. Only those two files include this one.
//
// The dense prune runs over the grid rows of one step, the sweep's two
// loops over the reachable bins of one step. The rungs are the lanes: a
// grid row's probabilities and a [bin][rung] row of the planes are each a
// RungLanes, three 4-double GCC vectors, which the baseline copy lowers to
// SSE2 pairs and the AVX2 copy to single ymm operations. Plain loops over
// ten rungs stayed scalar. Vector arithmetic is lane-wise IEEE arithmetic,
// so each lane performs the same operations in the same order at either
// ISA, and without contraction there is no fused multiply-add: both copies
// give the same bits. Scalars are splatted and every select is an
// integer-mask blend, both spelled out, so the code keeps to the vector
// operations GCC and clang share; the AVX copy's running max is vmaxpd,
// which selects exactly as its blend does.
//
// Everything here has internal linkage and calls no library function, so
// each of the two translation units keeps its own copy. An inline function
// or template shared by both would be one ODR symbol, and the linker could
// keep the AVX2 copy for a host without AVX2. The planes passed in never
// overlap, so they are __restrict.

#ifndef PUFFER_ABR_MPC_SWEEP_HH
#define PUFFER_ABR_MPC_SWEEP_HH

#include <limits>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "abr/mpc.hh"

namespace puffer::abr::detail {
namespace {

/// Four lanes of a RungLanes row. may_alias: the planes are doubles.
typedef double Lanes4 __attribute__((vector_size(32), may_alias));
/// A lane comparison's result: all ones where true, zero where false.
using Mask4 = decltype(Lanes4{} < Lanes4{});
constexpr int kVectors = kRungLanes / 4;

/// kept = the lanes of `x` where `keep` is set, +0.0 elsewhere.
void keep_or_zero(Lanes4& kept, const Lanes4& x, const Mask4& keep) {
  kept = reinterpret_cast<Lanes4>(reinterpret_cast<Mask4>(x) & keep);
}

/// best = the lanes of `value` where best < value, else best's own: the
/// running max's step, so a NaN or a tie never replaces best. The AVX copy
/// says it with vmaxpd(value, best), which is value > best ? value : best
/// per lane, NaN and signed zeros included: one instruction where the
/// blend takes three. The baseline copy spells the blend out.
/// (References: a 32-byte vector passed by value changes the baseline ABI.)
void keep_larger(Lanes4& best, const Lanes4& value) {
#if defined(__AVX__)
  best = reinterpret_cast<Lanes4>(_mm256_max_pd(
      reinterpret_cast<__m256d>(value), reinterpret_cast<__m256d>(best)));
#else
  const Mask4 take = best < value;
  best = reinterpret_cast<Lanes4>((reinterpret_cast<Mask4>(best) & ~take) |
                                  (reinterpret_cast<Mask4>(value) & take));
#endif
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

/// A dense step's prune, row by row: a row's probabilities are loaded into
/// the lanes, and a rung's lane keeps p where p >= min_probability (no
/// padding lane ever does; a NaN p is not kept). Each rung sums its kept p
/// in row order from +0.0; a row the rung does not keep adds +0.0, which
/// leaves the sum's bits unchanged, since it starts at +0.0 and never
/// becomes -0.0. A row some rung keeps is written out, and then each of
/// those rows' kept p is divided by its rung's sum.
int prune_grid(const TxTimeOutcome* const* const lists,
               const double min_probability, MergedRow* const rows,
               uint32_t& kept) {
  static_assert(kVectors == 3 && media::kNumRungs == 10,
                "the loads below fill rungs 0-9 and two padding lanes");
  const Mask4 rung_lanes[kVectors] = {
      {-1, -1, -1, -1}, {-1, -1, -1, -1}, {-1, -1, 0, 0}};
  const double t = min_probability;
  const Lanes4 threshold{t, t, t, t};
  Lanes4 mass[kVectors] = {};
  Mask4 kept_any[kVectors] = {};
  int num_rows = 0;
  for (int r = 0; r < kGridRows; r++) {
    const auto p = [&](const int rung) { return lists[rung][r].probability; };
    const Lanes4 lanes[kVectors] = {{p(0), p(1), p(2), p(3)},
                                    {p(4), p(5), p(6), p(7)},
                                    {p(8), p(9), 0.0, 0.0}};
    Mask4 keep_row = {};
    for (int v = 0; v < kVectors; v++) {
      const Mask4 keep = (lanes[v] >= threshold) & rung_lanes[v];
      Lanes4 kept_p;
      keep_or_zero(kept_p, lanes[v], keep);
      mass[v] += kept_p;
      kept_any[v] |= keep;
      keep_row |= keep;
    }
    if ((keep_row[0] | keep_row[1] | keep_row[2] | keep_row[3]) == 0) {
      continue;
    }
    MergedRow& row = rows[num_rows++];
    Lanes4* const out = lanes_of(row.probability);
    for (int v = 0; v < kVectors; v++) {
      out[v] = lanes[v];
    }
    row.grid_row = r;
    row.time_s = kTtpBinMidpointsS[static_cast<size_t>(r)];
  }
  for (int i = 0; i < num_rows; i++) {
    Lanes4* const lanes = lanes_of(rows[i].probability);
    for (int v = 0; v < kVectors; v++) {
      const Mask4 keep = (lanes[v] >= threshold) & rung_lanes[v];
      keep_or_zero(lanes[v], lanes[v] / mass[v], keep);
    }
  }
  kept = 0;
  for (int rung = 0; rung < media::kNumRungs; rung++) {
    kept |= (kept_any[rung / 4][rung % 4] != 0 ? 1U : 0U) << rung;
  }
  return num_rows;
}

/// A dense step, bin by bin: every rung adds the rows in order as
/// p * (V[next] - mu * stall) from +0.0, then the bin is maximized. A rung
/// that does not keep a row has p = 0 there, and adding 0 * (finite)
/// leaves its sum unchanged. A row the bin's buffer covers has no stall and
/// adds p * V, because V - mu * (+0.0) is V - (+0.0), which is V. The rows'
/// times and the bins ascend, so the first stalling row only moves forward.
void sweep_rows(RungLanes* __restrict const value_cur,
                const RungLanes* __restrict const value_next,
                const MergedRow* const rows, const int num_rows,
                const RungLanes* const switch_penalty, const SweepBins& at) {
  int first_stall = 0;
  for (int i = 0; i < at.count; i++) {
    const int b = at.bins[i];
    const double buffer_s = b * at.bin_s;
    while (first_stall < num_rows && rows[first_stall].time_s <= buffer_s) {
      first_stall++;
    }
    Lanes4 sum[kVectors] = {};
    for (int r = 0; r < first_stall; r++) {
      const Lanes4* const p = lanes_of(rows[r].probability);
      const Lanes4* const value = lanes_of(value_next[rows[r].next_bin[b]]);
      for (int v = 0; v < kVectors; v++) {
        sum[v] += p[v] * value[v];
      }
    }
    for (int r = first_stall; r < num_rows; r++) {
      const MergedRow& row = rows[r];
      const double cost = at.mu * (row.time_s - buffer_s);
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

constexpr SweepKernels kSweepKernels{&prune_grid, &sweep_rows, &maximize};

}  // namespace
}  // namespace puffer::abr::detail

#endif  // PUFFER_ABR_MPC_SWEEP_HH
