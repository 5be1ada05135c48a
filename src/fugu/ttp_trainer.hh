#ifndef PUFFER_FUGU_TTP_TRAINER_HH
#define PUFFER_FUGU_TTP_TRAINER_HH

#include <cstdint>
#include <vector>

#include "fugu/dataset.hh"
#include "fugu/ttp.hh"

namespace puffer::fugu {

/// Supervised-training configuration (paper section 4.3): cross-entropy on
/// discretized transmission times, 14-day sliding window with more weight on
/// recent days, shuffled samples, warm start from the previous model. The
/// paper trains by stochastic gradient descent; here each step's network
/// takes minibatch Adam steps (nn::AdamOptimizer) at kLearningRate.
struct TtpTrainConfig {
  static constexpr double kLearningRate = 3e-3;
  static constexpr double kRecencyDecay = 0.85;  ///< per-day weight multiplier

  int epochs = 6;
  int batch_size = 256;
  int window_days = 14;
  size_t max_examples_per_step = 50000;

  /// Throws RequirementError naming the first field training cannot run
  /// with (every count must be >= 1).
  void validate() const;
};

struct TtpTrainReport {
  std::vector<double> loss_per_epoch;  ///< mean over steps, per epoch
  size_t examples_per_step = 0;
};

/// A dataset featurized once, one row per chunk: the one featurization path
/// training and evaluation share. Row r, chunk i of its stream, holds the
/// state the server knew when it decided chunk i (history through i-1,
/// tcp_info at i) and, for the transmission-time target, chunk i's own size
/// as the last input. Its label bins chunk i's observed transfer.
///
/// The step-k example at row r asks how long the chunk k ahead will take:
/// row r's inputs with the size input taken from row r + k, labeled by row
/// r + k (BatchTtpPredictor::enqueue_rows patches the size input the same
/// way). It exists while r + k stays inside r's stream.
class TtpFeatureTable {
 public:
  /// The streams of `dataset` whose day lies in
  /// (current_day - window_days, current_day], each stream's rows weighted
  /// recency_decay^(current_day - day) (section 4.3's sliding window).
  TtpFeatureTable(const TtpConfig& config, const TtpDataset& dataset,
                  int current_day, int window_days, double recency_decay);
  /// Every stream of `dataset`, each row weighted 1: the evaluation view,
  /// whose row r is the dataset's r-th chunk.
  TtpFeatureTable(const TtpConfig& config, const TtpDataset& dataset);

  [[nodiscard]] size_t rows() const { return labels_.size(); }
  [[nodiscard]] size_t input_dim() const { return dim_; }

  /// The rows that have a step-`step` example, in dataset order.
  [[nodiscard]] std::vector<uint32_t> example_rows(int step) const;

  /// Write the step-`step` example's inputs at `row` to out[0, input_dim).
  void copy_inputs(size_t row, int step, float* out) const;
  [[nodiscard]] int label(const size_t row, const int step) const {
    return labels_[row + static_cast<size_t>(step)];
  }
  [[nodiscard]] float weight(const size_t row) const { return weights_[row]; }

 private:
  void reserve(size_t rows);
  void add_stream(const TtpConfig& config, const StreamLog& stream,
                  float weight);

  size_t dim_;
  bool has_size_input_;
  std::vector<float> inputs_;  ///< rows() x dim_, row-major
  std::vector<int> labels_;
  std::vector<float> weights_;
  /// Row index one past each stream's last row, in dataset order.
  std::vector<size_t> stream_ends_;
};

/// One TTP training run (optionally warm-started from `warm_start`, which
/// must share the same config) on the dataset's last `window_days` days,
/// split into one job per step network so a caller can schedule them in
/// its own thread pool.
///
/// The step networks share no weight, batch or optimizer. The constructor
/// makes every draw from `rng` in the order one-network-after-another
/// training makes them: the model seed, then each step's shuffles. So the
/// result does not depend on which thread runs a step or in what order:
/// every network's bytes, the report and the position `rng` is left at are
/// those of training the networks one after another, and finish() sums the
/// report's per-step losses in step order.
class TtpTrainer {
 public:
  /// The serial pre-pass: validates `train_config`, draws the model seed,
  /// copies the warm start, featurizes the window and draws every step's
  /// shuffles. Neither `dataset` nor `warm_start` is read afterwards.
  TtpTrainer(const TtpConfig& config, const TtpDataset& dataset,
             int current_day, const TtpTrainConfig& train_config, Rng& rng,
             const TtpModel* warm_start = nullptr);

  /// One train_step job per step network.
  [[nodiscard]] int num_steps() const { return model_.config().horizon; }

  /// Train step network `step`, once. Jobs for distinct steps touch
  /// disjoint state, so they may run concurrently and in any order.
  void train_step(int step);

  /// The trained model, once every step's job has returned; writes
  /// `report` when non-null.
  [[nodiscard]] TtpModel finish(TtpTrainReport* report = nullptr) &&;

 private:
  TtpTrainConfig train_config_;
  TtpModel model_;
  TtpFeatureTable table_;
  std::vector<Rng> step_rngs_;  ///< where each step's draws start
  size_t examples_per_step_ = 0;
  /// losses_[step][epoch]: each job writes only its own step's slots.
  std::vector<std::vector<double>> losses_;
};

/// TtpTrainer's jobs, one per step network, on one ThreadPool::run of
/// num_threads workers (0 = all cores). The result is bit-identical at any
/// num_threads.
TtpModel train_ttp(const TtpConfig& config, const TtpDataset& dataset,
                   int current_day, const TtpTrainConfig& train_config,
                   Rng& rng, const TtpModel* warm_start = nullptr,
                   TtpTrainReport* report = nullptr, int num_threads = 1);

/// Held-out evaluation of a TTP's step-0 networks (Figure 7's metric family).
struct TtpEvaluation {
  double cross_entropy = 0.0;   ///< nats, lower is better
  double top1_accuracy = 0.0;   ///< probability the argmax bin is correct
  double rmse_expected_s = 0.0; ///< RMSE of the distribution's mean
  double rmse_point_s = 0.0;    ///< RMSE of the max-likelihood point estimate
  size_t examples = 0;
};

TtpEvaluation evaluate_ttp(const TtpModel& model, const TtpDataset& dataset);

}  // namespace puffer::fugu

#endif  // PUFFER_FUGU_TTP_TRAINER_HH
