#ifndef PUFFER_FUGU_BATCH_TTP_HH
#define PUFFER_FUGU_BATCH_TTP_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "abr/predictor.hh"
#include "fugu/ttp.hh"
#include "media/vbr_source.hh"

namespace puffer::fugu {

/// Coalesces TTP forward passes. Feature rows are gathered into one matrix
/// per step-network — within one ABR decision and, in the fleet engine,
/// across many concurrently-deciding sessions — and each group then runs a
/// single forward pass (one GEMM per layer) instead of one matrix-vector
/// pass per row. Consecutive rows of a group that agree in every feature
/// but the last (one decision step's rungs, which differ only in the
/// proposed size) form a run, and the first layer multiplies a run's shared
/// features once (Mlp::forward_runs). Row results are bit-identical to
/// forward_one: every output row accumulates in the same order regardless
/// of how many rows share the batch or a run.
class TtpInferenceBatch {
 public:
  /// Where an enqueued row's answer will appear after run().
  struct Slot {
    size_t group = 0;
    size_t row = 0;
  };

  /// Resolve the row group of (model, step) — step clamped to the model's
  /// horizon exactly as TtpModel::predict_bins clamps it. One lookup per
  /// (decision, step); enqueue_row() then appends without it.
  size_t group_for(const TtpModel& model, int step);

  /// Append one feature row to a resolved group (the per-row hot path). It
  /// joins the group's last run when it agrees with the previous row, bit
  /// for bit, in every feature but the last.
  Slot enqueue_row(size_t group, std::span<const float> features);

  /// Run one fused forward pass per non-empty group, reading the staged
  /// rows in place, then softmax each row.
  void run();

  /// Post-softmax bin probabilities of an enqueued row; valid until the
  /// next clear(). Read-only, so concurrent readers are safe.
  [[nodiscard]] std::span<const float> probs(const Slot& slot) const;

  /// Drop all rows, keeping group buffers warm for the next batch.
  void clear();

  [[nodiscard]] int64_t rows_pending() const { return rows_pending_; }
  /// Distinct (model, step) row groups resolved so far. Group buffers stay
  /// warm across clear(), so this is also the batch's steady-state buffer
  /// footprint — each fleet shard owns one batch and reports it.
  [[nodiscard]] size_t num_groups() const { return groups_.size(); }
  /// Cumulative counters (survive clear()) for bench/fleet statistics.
  [[nodiscard]] int64_t total_rows() const { return total_rows_; }
  [[nodiscard]] int64_t total_forward_calls() const { return total_forwards_; }
  /// Largest row count any single forward pass ran with (survives clear());
  /// how full the coalescing actually got, reported per fleet shard.
  [[nodiscard]] int64_t max_forward_rows() const { return max_forward_rows_; }

 private:
  struct Group {
    const nn::Mlp* network = nullptr;
    size_t input_dim = 0;
    size_t rows_used = 0;
    std::vector<float> staging;   ///< row-major feature rows
    std::vector<uint32_t> runs;   ///< row counts of the staged runs
    nn::Matrix logits;
    nn::Matrix scratch;
  };

  /// Insertion order (deterministic). Resolution is a linear scan by
  /// network identity — a pointer-keyed std::map would order by allocation
  /// address (detlint R3), and with one group per step-network the scan is
  /// at most a handful of compares, cheaper than a tree walk.
  std::vector<Group> groups_;
  int64_t rows_pending_ = 0;
  int64_t total_rows_ = 0;
  int64_t total_forwards_ = 0;
  int64_t max_forward_rows_ = 0;
};

/// Fugu's TTP predictor: adapts a trained TtpModel to the TxTimePredictor
/// interface StochasticMpc consumes, keeping the rolling per-connection
/// history of chunk sizes and transmission times and snapshotting tcp_info
/// at each decision. `point_estimate` collapses each distribution to its
/// max-likelihood bin, the paper's "Point Estimate" ablation (section 4.6).
/// A decision's queries run as fused matrix-matrix passes, not one
/// matrix-vector pass per (step, rung). Two modes:
///  * standalone: predict_batch() gathers all rows of the decision into an
///    internal TtpInferenceBatch and runs it immediately — one GEMM per
///    step-network per decision;
///  * staged (fleet engine): stage() enqueues the upcoming decision's rows
///    into a shared batch; once the engine has run that batch, the MPC
///    planner's predict_batch() is served straight from it, coalescing
///    inference across concurrently-deciding sessions.
/// Either way the distributions are bit-identical to one single-row
/// forward pass per query (the scalar oracle in
/// tests/oracles/ttp_reference.hh, which the tests and nn_kernels check
/// against).
class BatchTtpPredictor final : public abr::TxTimePredictor {
 public:
  explicit BatchTtpPredictor(std::shared_ptr<const TtpModel> model,
                             bool point_estimate = false);

  void begin_decision(const abr::AbrObservation& obs) override;
  abr::TxTimeDistribution predict(int step, int64_t size_bytes) override;
  void predict_batch(std::span<const abr::TxTimeQuery> queries,
                     std::vector<abr::TxTimeDistribution>& out) override;
  void on_chunk_complete(const abr::ChunkRecord& record) override;
  void reset_session() override;

  /// Fleet protocol: featurize and enqueue the rows of the decision the MPC
  /// controller is about to make over `lookahead` with planning horizon
  /// `horizon` — (step x rung) in step-major order, exactly the query order
  /// StochasticMpc::plan issues — into `batch`. The next predict_batch()
  /// call is answered from `batch`, which must have been run by then.
  void stage(const abr::AbrObservation& obs,
             std::span<const media::ChunkOptions> lookahead, int horizon,
             TtpInferenceBatch& batch);

  [[nodiscard]] const TtpModel& model() const { return *model_; }
  [[nodiscard]] const TtpHistory& history() const { return history_; }

 private:
  void enqueue_rows(std::span<const abr::TxTimeQuery> queries,
                    TtpInferenceBatch& batch,
                    std::vector<TtpInferenceBatch::Slot>& slots);
  /// The distribution of one answered row, into `out` (capacity kept).
  void distribution_into(const TtpInferenceBatch& batch,
                         const TtpInferenceBatch::Slot& slot,
                         int64_t size_bytes,
                         abr::TxTimeDistribution& out) const;

  std::shared_ptr<const TtpModel> model_;
  bool point_estimate_;
  TtpHistory history_;
  net::TcpInfo current_tcp_;
  std::vector<float> features_;  ///< base feature row, size element patched

  TtpInferenceBatch local_batch_;  ///< standalone per-decision fusion
  std::vector<TtpInferenceBatch::Slot> local_slots_;

  TtpInferenceBatch* staged_batch_ = nullptr;  ///< fleet-shared batch
  std::vector<abr::TxTimeQuery> staged_queries_;
  std::vector<TtpInferenceBatch::Slot> staged_slots_;
};

}  // namespace puffer::fugu

#endif  // PUFFER_FUGU_BATCH_TTP_HH
