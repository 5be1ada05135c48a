#ifndef PUFFER_ABR_PENSIEVE_TRAINER_HH
#define PUFFER_ABR_PENSIEVE_TRAINER_HH

#include "abr/pensieve_env.hh"
#include "nn/mlp.hh"
#include "nn/optimizer.hh"

namespace puffer::abr {

/// Advantage-actor-critic training of the Pensieve policy in the chunk-level
/// emulation environment ("reinforcement learning in simulation", Figure 5).
/// Includes the entropy-regularization annealing the Pensieve authors
/// recommended to the Puffer team (section 3.3: "tune the entropy parameter
/// ... 6 different models with various entropy reduction schemes").
struct PensieveTrainConfig {
  static constexpr double kDiscount = 0.99;
  static constexpr double kActorLearningRate = 3e-4;   ///< Adam
  static constexpr double kCriticLearningRate = 1e-3;  ///< Adam
  /// Entropy weight, annealed geometrically from start to end.
  static constexpr double kEntropyWeightStart = 0.30;
  static constexpr double kEntropyWeightEnd = 0.01;
  static constexpr double kGradientClip = 40.0;  ///< max global L2 norm

  int iterations = 600;
  int episodes_per_iteration = 8;
  PensieveEnvConfig env;
};

struct PensieveTrainReport {
  double final_mean_reward = 0.0;
  double final_stall_fraction = 0.0;
  std::vector<double> reward_per_iteration;
};

/// Train and return an actor network (and fill `report` if non-null).
nn::Mlp train_pensieve(const PensieveTrainConfig& config, uint64_t seed,
                       PensieveTrainReport* report = nullptr);

}  // namespace puffer::abr

#endif  // PUFFER_ABR_PENSIEVE_TRAINER_HH
