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
  int iterations = 600;
  int episodes_per_iteration = 8;
  double discount = 0.99;
  double actor_learning_rate = 3e-4;
  double critic_learning_rate = 1e-3;
  double entropy_weight_start = 0.30;
  double entropy_weight_end = 0.01;
  double gradient_clip = 40.0;
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
