#ifndef PUFFER_FUGU_TTP_TRAINER_HH
#define PUFFER_FUGU_TTP_TRAINER_HH

#include <optional>

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

/// One featurized training/evaluation example for a single horizon step.
struct TtpExample {
  std::vector<float> features;
  int label = 0;
  float weight = 1.0f;
  double true_tx_time_s = 0.0;
  double size_mb = 0.0;
};

/// Build step-`step` examples from raw stream logs: features are the state
/// at chunk i (history through i-1, tcp_info at i, proposed size of chunk
/// i+step); the label is the observed transmission time of chunk i+step.
std::vector<TtpExample> build_examples(const TtpConfig& config,
                                       const TtpDataset& dataset, int step,
                                       int current_day, double recency_decay);

/// Train a TTP (optionally warm-started from `warm_start`, which must share
/// the same config) on the dataset's last `window_days` days.
TtpModel train_ttp(const TtpConfig& config, const TtpDataset& dataset,
                   int current_day, const TtpTrainConfig& train_config,
                   Rng& rng, const TtpModel* warm_start = nullptr,
                   TtpTrainReport* report = nullptr);

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
