#ifndef PUFFER_ABR_MPC_HH
#define PUFFER_ABR_MPC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "abr/predictor.hh"

namespace puffer::abr {

/// Configuration of the model-predictive controller (paper sections 4.1,
/// 4.4, 4.5): QoE(K) = Q(K) - lambda*|Q(K)-Q(prev)| - mu*stall, horizon
/// H = 5 chunks, value iteration over a discretized buffer. The planner's
/// buffer model is the stream's own: chunks of media::kChunkDurationS into a
/// buffer capped at media::kMaxBufferS.
struct MpcConfig {
  int horizon = 5;
  double lambda = 1.0;           ///< quality-variation weight
  double mu = 100.0;             ///< stall weight (per second of stall)
  double buffer_bin_s = 0.25;    ///< buffer discretization
  /// Planning drops outcomes below this probability. Kept very small: with
  /// mu = 100, even a low-probability worst-case bin (10.5 s) carries real
  /// expected cost, and hiding tail risk is exactly the failure mode
  /// stochastic MPC exists to avoid (section 4.6).
  double prune_probability = 1e-4;
};

/// lround for a non-negative finite x that fits an int, without the libm
/// call: x - trunc(x) is exact, so comparing it with 0.5 rounds halves away
/// from zero exactly as lround does (x + 0.5 would round up
/// 0.49999999999999994). Exposed for its test.
[[nodiscard]] inline int round_nonnegative(const double x) {
  const int whole = static_cast<int>(x);
  return x - whole >= 0.5 ? whole + 1 : whole;
}

namespace detail {

/// A next-bin row split into runs the fold adds without a per-bin gather:
/// bins [0, stall_end) stall (t > b*bin) and all land in next_bin[0];
/// bins [stall_end, shift_end) do not stall and land in bin b + shift;
/// bins [shift_end, bins) are the tail. shift is negative for outcome times
/// longer than a chunk, so the fold indexes row[b + shift] rather than
/// forming a pointer before the row.
struct NextBinRuns {
  int stall_end = 0;
  int shift_end = 0;
  int shift = 0;
};

/// The buffer grid a sweep step runs on, and the stall weight.
struct SweepGrid {
  int bins = 0;  ///< num_bins + 1 bins per row
  double bin_s = 0.0;
  double mu = 0.0;
};

/// One copy of the backward sweep's inner loops (abr/mpc_sweep.hh).
struct SweepKernels {
  /// Adds one outcome (time t, probability p) of an action into the
  /// action's folded row: base[b] += p * (V[next_bin[b]] - mu * stall(b)).
  void (*fold)(double* base, const double* value_row, const uint16_t* next_bin,
               NextBinRuns runs, double t, double p, const SweepGrid& grid);
  /// value_cur[prev][b] = max over actions a, in ascending order, of
  /// switch_penalty[a][prev] + expect_base[a][b].
  void (*maximize)(double* value_cur, const double* expect_base,
                   const double* switch_penalty, int bins);
};

/// Defined in mpc_avx2.cc: the AVX2 copy, or nullptr when it was not
/// compiled in (non-x86 target, no compiler support, or PUFFER_SIMD=OFF).
/// It does not check the CPU; mpc.cc does, at the baseline ISA.
const SweepKernels* avx2_sweep_kernels();

}  // namespace detail

/// "avx2" or "portable": the sweep copy StochasticMpc::plan runs now.
[[nodiscard]] std::string mpc_active_path();

/// Stochastic model-predictive controller: maximizes expected cumulative QoE
/// over the lookahead horizon — exactly the paper's section 4.4 formulation.
/// Works with any TxTimePredictor:
///  * degenerate (point-mass) distributions reproduce classical MPC;
///  * Fugu's probabilistic TTP makes it a stochastic optimal controller.
///
/// plan() runs the dynamic program as an iterative backward sweep over the
/// (step x previous-rung x buffer-bin) lattice: per step, the expectation
/// over transmission-time outcomes is folded once per (action, bin), and the
/// per-(prev-rung, bin) maximization then reads those folded values. No
/// recursion, no memo probing, and the outcome loop no longer repeats per
/// previous rung (a kNumRungs-fold reduction in expectation work vs. the
/// memoized recursion).
///
/// The fold's bin transition (outcome time, bin) -> next bin comes from a
/// table built at construction, one row per TTP grid time
/// (kTtpBinMidpointsS, the only times Fugu's outcomes take); any other time
/// (MPC-HM's point masses, the throughput ablation) has its row computed
/// into a scratch row with the same expressions. Each row is split into
/// three runs (detail::NextBinRuns), fixed with the row: a stall run, whose
/// bins all land in the same next bin; a shift run, whose bins land in
/// b + shift; and a tail gathered per bin. The value planes are
/// [rung][bin], so the fold adds from contiguous slices of one V row and the
/// maximization writes whole rows. Every bin still sums its outcomes in
/// order with the same expressions, so plans are bitwise those of a per-bin
/// gather.
///
/// The fold and the maximization (abr/mpc_sweep.hh) are compiled twice: at
/// the baseline ISA in mpc.cc, and with -mavx2 -ffp-contract=off (no FMA) in
/// mpc_avx2.cc. plan() runs the AVX2 copy when it was compiled in and the
/// CPU reports AVX2, unless util::set_force_portable(true) is in effect.
/// Both copies perform the same IEEE operations per bin in the same order,
/// so they give the same bits; tests run both and compare
/// (mpc_active_path() names the copy plan() runs).
///
/// The seed's recursive, memoized value iteration is the oracle the tests
/// pin plan() against; it lives outside the library
/// (tests/oracles/mpc_reference.hh) and reads last_distributions().
class StochasticMpc {
 public:
  explicit StochasticMpc(MpcConfig config = {});

  /// Plan and return the rung to send now. The predictor must already have
  /// been primed with begin_decision(obs).
  int plan(const AbrObservation& obs,
           std::span<const media::ChunkOptions> lookahead,
           TxTimePredictor& predictor);

  [[nodiscard]] const MpcConfig& config() const { return config_; }

  /// Expected total QoE of the most recent plan (for tests/diagnostics).
  [[nodiscard]] double last_plan_value() const { return last_plan_value_; }

  /// Per-action expected total QoE at the root of the most recent plan
  /// (for tests/diagnostics; index = rung).
  [[nodiscard]] std::span<const double> last_root_values() const {
    return root_values_;
  }

  /// The pruned, renormalized distributions the most recent plan used,
  /// [step * kNumRungs + rung] (for tests/diagnostics).
  [[nodiscard]] std::span<const TxTimeDistribution> last_distributions() const {
    return distributions_;
  }

 private:
  [[nodiscard]] int buffer_to_bin(double buffer_s) const;

  /// Fills table row `row` with the bin index after a chunk of `tx_time_s`
  /// lands on each grid buffer b,
  /// next_bin[b] = buffer_to_bin(min(max(b*bin - t, 0) + chunk, max buffer)),
  /// and its runs.
  void fill_next_bin_row(double tx_time_s, size_t row);
  /// The table row of `tx_time_s`: its own row when it is a TTP grid time,
  /// else the scratch row, refilled.
  size_t next_bin_row(double tx_time_s);

  /// Plan setup: cache the lookahead, issue all (step x rung)
  /// queries in one predict_batch call, prune the distributions.
  void prepare_plan(std::span<const media::ChunkOptions> lookahead,
                    TxTimePredictor& predictor);

  /// Root maximization over the continuous (un-binned) buffer, reading
  /// step-1 values from `next_values` (the V[1] plane, or zeros when the
  /// horizon is 1). Returns the argmax rung and fills root_values_.
  int plan_root(const AbrObservation& obs, std::span<const double> next_values);

  /// QoE of choosing `version` given previous quality `prev_ssim_db`
  /// (variation term skipped when prev_ssim_db < 0) and the stall implied by
  /// transmission time vs. buffer.
  [[nodiscard]] double chunk_qoe(double ssim_db, double prev_ssim_db,
                                 double tx_time_s, double buffer_s) const;

  MpcConfig config_;
  int num_bins_ = 0;
  // [row * (num_bins_+1) + bin]: one row per kTtpBinMidpointsS time, then
  // the scratch row for off-grid times.
  std::vector<uint16_t> next_bin_;
  std::vector<detail::NextBinRuns> next_bin_runs_;  // [row], refilled with it

  // Per-plan scratch (kept across calls to avoid reallocation).
  std::span<const media::ChunkOptions> lookahead_;
  int effective_horizon_ = 0;
  std::vector<TxTimeQuery> queries_;               // [step * kNumRungs + rung]
  std::vector<TxTimeDistribution> distributions_;  // [step * kNumRungs + rung]
  double last_plan_value_ = 0.0;
  std::vector<double> root_values_;  // [rung]

  // Iterative-sweep lattice planes V[step] and V[step + 1], indexed
  // [rung * (num_bins_+1) + buffer_bin]: the fold reads one rung's row.
  std::vector<double> value_cur_;
  std::vector<double> value_next_;
  std::vector<double> expect_base_;  // [action * (num_bins_+1) + bin]
  std::vector<double> switch_penalty_;  // [action * kNumRungs + prev_rung]
};

}  // namespace puffer::abr

#endif  // PUFFER_ABR_MPC_HH
