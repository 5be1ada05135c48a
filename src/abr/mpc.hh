#ifndef PUFFER_ABR_MPC_HH
#define PUFFER_ABR_MPC_HH

#include <array>
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

/// One buffer bin's values over the rungs, padded to whole 4-double vectors.
/// The sweep's planes are [bin][rung] rows of these, so one outcome row
/// updates every rung of a bin with contiguous vector loads.
inline constexpr int kRungLanes = 12;
static_assert(kRungLanes >= media::kNumRungs && kRungLanes % 4 == 0);
struct alignas(32) RungLanes {
  double lane[kRungLanes];
};

/// One TTP grid row of a merged step: its time, its next-bin table row and
/// each rung's probability on it (0 for a rung with no outcome there).
struct MergedRow {
  RungLanes probability;
  double time_s = 0.0;
  const uint16_t* next_bin = nullptr;  ///< [bin]
};

/// The bins a step is read at, ascending, and the sweep's constants.
struct SweepBins {
  const int* bins = nullptr;
  int count = 0;
  double bin_s = 0.0;
  double mu = 0.0;
};

/// One copy of the backward sweep's inner loops (abr/mpc_sweep.hh). Both
/// write value_cur[b][prev] = max over actions a, in ascending order, of
/// switch_penalty[a][prev] + E[b][a] at every bin b of `at`.
struct SweepKernels {
  /// A merged step: E[b][a] = sum over rows, in order from +0.0, of
  /// p_row[a] * (value_next[next_bin_row[b]][a] - mu * stall(b)).
  void (*sweep_rows)(RungLanes* value_cur, const RungLanes* value_next,
                     const MergedRow* rows, int num_rows,
                     const RungLanes* switch_penalty, const SweepBins& at);
  /// E[at.bins[i]] = expect[i], folded by the caller.
  void (*maximize)(RungLanes* value_cur, const RungLanes* expect,
                   const RungLanes* switch_penalty, const SweepBins& at);
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
/// plan() runs the dynamic program over the (step x buffer-bin x
/// previous-rung) lattice in two passes, and only at the bins a decision can
/// reach:
///  * Forward: S_1 is the set of bins the root's outcomes land in, and
///    S_{k+1} the set of next bins of every outcome of every rung at step k
///    from S_k. The next bins are exactly the ones the fold reads: a table
///    built at construction for the TTP grid times (kTtpBinMidpointsS, the
///    only times Fugu's outcomes take) and the landing-bin expression for
///    any other time (MPC-HM's point masses, the throughput ablation).
///  * Backward: from the last step to step 1, fold the outcome expectation
///    once per (action, bin of S_k), then maximize over actions for every
///    (previous rung, bin of S_k). The root reads V[1] at S_1.
///
/// The value planes are [bin][rung] (detail::RungLanes), so one outcome row
/// updates every rung of a bin with contiguous vector loads. When every
/// rung's outcomes at a step are ascending TTP grid rows (Fugu's steps), the
/// rows are merged across rungs in row order, each rung weighting a row it
/// lacks by 0. Any other step folds per rung and per reachable bin. Either
/// way every (rung, bin) adds its own outcomes in list order from +0.0 as
/// p * (V[next] - mu * stall), and the maximization keeps ascending actions
/// with a strict <, so plans are bitwise those of a full-lattice per-bin
/// sweep. Adding p = 0 rows changes nothing only while values and stall
/// costs are finite, which is why the constructor rejects a non-finite
/// lambda or mu.
///
/// The merged fold and the maximization (abr/mpc_sweep.hh) are compiled
/// twice: at the baseline ISA in mpc.cc, and with -mavx2 -ffp-contract=off
/// (no FMA) in mpc_avx2.cc. plan() runs the AVX2 copy when it was compiled
/// in and the CPU reports AVX2, unless util::set_force_portable(true) is in
/// effect. Both copies perform the same IEEE operations per lane in the same
/// order, so they give the same bits; tests run both and compare
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
  /// A step's fold and where its reachable bins S_step sit in reachable_.
  struct StepSweep {
    uint32_t row_mask = 0;  ///< merged: the grid rows it reads; else 0
    int bins_begin = 0;
    int bins_end = 0;
  };

  [[nodiscard]] const TxTimeDistribution& distribution(const int step,
                                                       const int rung) const {
    return distributions_[static_cast<size_t>(step) * media::kNumRungs +
                          static_cast<size_t>(rung)];
  }

  [[nodiscard]] int buffer_to_bin(double buffer_s) const;

  /// The bin a chunk of `tx_time_s` leaves the buffer in when it starts at
  /// `buffer_s`: buffer_to_bin(min(max(buffer_s - t, 0) + chunk, max)).
  [[nodiscard]] int landing_bin(double buffer_s, double tx_time_s) const;

  /// Plan setup: cache the lookahead, issue all (step x rung)
  /// queries in one predict_batch call, prune the distributions.
  void prepare_plan(std::span<const media::ChunkOptions> lookahead,
                    TxTimePredictor& predictor);

  /// The grid rows (bit per kTtpBinMidpointsS index) of step's outcomes
  /// when every rung's outcomes are grid times in strictly ascending order,
  /// so the step can be merged; else 0. Merging is only a speed-up, but a
  /// large one: with every step folded per rung (a landing-bin division per
  /// outcome, rung and bin instead of one table row shared by the rungs),
  /// fleet-mixed `chunks_per_s` read 34.2k against 92.3k chunks/s (medians
  /// of 10 alternating 20 s benchmark pairs, 4-vCPU x86-64, gcc 12.2).
  [[nodiscard]] uint32_t merged_row_mask(int step) const;

  /// Fills merged_rows_ with the `row_mask` rows of a merged step, in row
  /// order; returns how many.
  int merge_rows(int step, uint32_t row_mask);

  /// Forward pass: fills steps_ (each step's fold and its reachable bins,
  /// from the root's landing bins on).
  void collect_reachable(const AbrObservation& obs);

  /// Ends reachable_'s current set: appends the bins marked in reached_,
  /// ascending, clears the marks and returns the set's end.
  int close_reachable_set();

  /// The fold of a step that is not merged, into expect_ [i-th bin of
  /// `at`]: per rung and per bin, each outcome's next bin from landing_bin.
  void fold_per_rung(int step, const detail::SweepBins& at);

  /// Root maximization over the continuous (un-binned) buffer, reading
  /// step-1 values from `next_values` (the V[1] plane, or zeros when the
  /// horizon is 1). Returns the argmax rung and fills root_values_.
  int plan_root(const AbrObservation& obs,
                std::span<const detail::RungLanes> next_values);

  /// QoE of choosing `version` given previous quality `prev_ssim_db`
  /// (variation term skipped when prev_ssim_db < 0) and the stall implied by
  /// transmission time vs. buffer.
  [[nodiscard]] double chunk_qoe(double ssim_db, double prev_ssim_db,
                                 double tx_time_s, double buffer_s) const;

  MpcConfig config_;
  int num_bins_ = 0;
  // [row * (num_bins_+1) + bin]: one row per kTtpBinMidpointsS time.
  std::vector<uint16_t> next_bin_;

  // Per-plan scratch (kept across calls to avoid reallocation).
  std::span<const media::ChunkOptions> lookahead_;
  int effective_horizon_ = 0;
  std::vector<TxTimeQuery> queries_;               // [step * kNumRungs + rung]
  std::vector<TxTimeDistribution> distributions_;  // [step * kNumRungs + rung]
  double last_plan_value_ = 0.0;
  std::vector<double> root_values_;  // [rung]

  std::vector<StepSweep> steps_;  // [step]
  std::vector<int> reachable_;    // every step's bins
  std::vector<uint8_t> reached_;  // [bin]: marks of the set being collected
  std::array<detail::MergedRow, kTtpBinMidpointsS.size()> merged_rows_{};
  std::vector<detail::RungLanes> expect_;  // fold_per_rung's output
  std::array<detail::RungLanes, media::kNumRungs> switch_penalty_{};  // [a]

  // Lattice planes V[step] and V[step + 1], [bin][rung]; a plan writes and
  // reads them only at its reachable bins.
  std::vector<detail::RungLanes> value_cur_;
  std::vector<detail::RungLanes> value_next_;
};

}  // namespace puffer::abr

#endif  // PUFFER_ABR_MPC_HH
