#include "abr/pensieve_trainer.hh"

#include <algorithm>
#include <cmath>

#include "media/ladder.hh"
#include "nn/loss.hh"
#include "util/require.hh"

namespace puffer::abr {

namespace {

struct EpisodeTrace {
  std::vector<std::vector<float>> states;
  std::vector<int> actions;
  std::vector<double> rewards;
  double stall_s = 0.0;
};

EpisodeTrace run_episode(PensieveEnv& env, const nn::Mlp& actor, Rng& rng) {
  EpisodeTrace trace;
  std::vector<float> state = env.reset();
  bool done = false;
  while (!done) {
    std::vector<float> logits = actor.forward_one(state);
    nn::softmax_inplace(logits);
    std::vector<double> probs{logits.begin(), logits.end()};
    const int action = static_cast<int>(rng.categorical(probs));

    trace.states.push_back(state);
    trace.actions.push_back(action);

    PensieveEnv::StepResult result = env.step(action);
    trace.rewards.push_back(result.reward);
    trace.stall_s += result.stall_s;
    state = std::move(result.next_state);
    done = result.done;
  }
  return trace;
}

}  // namespace

nn::Mlp train_pensieve(const PensieveTrainConfig& config, const uint64_t seed,
                       PensieveTrainReport* report) {
  require(config.iterations >= 1, "train_pensieve: iterations must be >= 1");
  require(config.episodes_per_iteration >= 1,
          "train_pensieve: episodes_per_iteration must be >= 1");

  Rng rng = Rng{seed}.split("pensieve-train");
  nn::Mlp actor = make_pensieve_actor(rng.engine()());
  nn::Mlp critic = make_pensieve_critic(rng.engine()());
  nn::AdamOptimizer actor_opt{PensieveTrainConfig::kActorLearningRate};
  nn::AdamOptimizer critic_opt{PensieveTrainConfig::kCriticLearningRate};
  PensieveEnv env{config.env, rng.engine()()};

  if (report != nullptr) {
    report->reward_per_iteration.clear();
  }

  // Training buffers hoisted out of the iteration loop; everything resizes
  // in place, so steady-state iterations stop allocating in the NN stack.
  nn::Tape critic_tape;
  nn::Tape actor_tape;
  nn::Matrix dvalues;
  nn::Matrix probs;
  nn::Matrix dlogits;
  nn::Gradients critic_grads = critic.make_gradients();
  nn::Gradients actor_grads = actor.make_gradients();

  for (int iteration = 0; iteration < config.iterations; iteration++) {
    // Entropy weight anneals geometrically over training (the "entropy
    // reduction scheme").
    const double progress =
        config.iterations > 1
            ? static_cast<double>(iteration) / (config.iterations - 1)
            : 1.0;
    const double entropy_weight =
        PensieveTrainConfig::kEntropyWeightStart *
        std::pow(PensieveTrainConfig::kEntropyWeightEnd /
                     PensieveTrainConfig::kEntropyWeightStart,
                 progress);

    // 1. Collect a batch of episodes with the current policy.
    std::vector<EpisodeTrace> episodes;
    double batch_reward = 0.0;
    double batch_stall = 0.0;
    double batch_time = 0.0;
    for (int e = 0; e < config.episodes_per_iteration; e++) {
      episodes.push_back(run_episode(env, actor, rng));
      for (const double r : episodes.back().rewards) {
        batch_reward += r;
      }
      batch_stall += episodes.back().stall_s;
      batch_time += static_cast<double>(episodes.back().rewards.size()) *
                    media::kChunkDurationS;
    }

    // 2. Flatten into one training batch with discounted returns.
    size_t total_steps = 0;
    for (const auto& ep : episodes) {
      total_steps += ep.states.size();
    }
    nn::Matrix states{total_steps, kPensieveStateDim};
    std::vector<int> actions(total_steps);
    std::vector<float> returns(total_steps);
    size_t row = 0;
    for (const auto& ep : episodes) {
      double running = 0.0;
      std::vector<double> ep_returns(ep.rewards.size());
      for (size_t i = ep.rewards.size(); i-- > 0;) {
        running = ep.rewards[i] + PensieveTrainConfig::kDiscount * running;
        ep_returns[i] = running;
      }
      for (size_t i = 0; i < ep.states.size(); i++) {
        for (int c = 0; c < kPensieveStateDim; c++) {
          states.at(row, static_cast<size_t>(c)) =
              ep.states[i][static_cast<size_t>(c)];
        }
        actions[row] = ep.actions[i];
        returns[row] = static_cast<float>(ep_returns[i]);
        row++;
      }
    }

    // 3. Critic update (value baseline) + advantages.
    critic.forward_tape(states, critic_tape);
    const nn::Matrix& values = critic_tape.activations.back();
    mse_loss(values, returns, dvalues);
    critic_grads.zero();
    critic.backward(critic_tape, dvalues, critic_grads);
    nn::clip_gradient_norm(critic_grads, PensieveTrainConfig::kGradientClip);
    critic_opt.step(critic, critic_grads);

    std::vector<float> advantages(total_steps);
    for (size_t i = 0; i < total_steps; i++) {
      advantages[i] = returns[i] - values.at(i, 0);
    }
    // Normalize advantages for stable policy gradients.
    double adv_mean = 0.0, adv_sq = 0.0;
    for (const float a : advantages) {
      adv_mean += a;
      adv_sq += static_cast<double>(a) * a;
    }
    adv_mean /= static_cast<double>(total_steps);
    const double adv_std = std::sqrt(
        std::max(adv_sq / static_cast<double>(total_steps) - adv_mean * adv_mean,
                 1e-6));
    for (float& a : advantages) {
      a = static_cast<float>((a - adv_mean) / adv_std);
    }

    // 4. Actor update: policy gradient with entropy bonus.
    actor.forward_tape(states, actor_tape);
    nn::softmax(actor_tape.activations.back(), probs);

    // dLoss/dlogits for loss = -advantage*log pi(a|s) - beta*H(pi):
    //   policy term: advantage * (probs - onehot)
    //   entropy term: beta * probs * (log probs + H)   [d(-H)/dlogits]
    dlogits.resize_no_zero(total_steps, media::kNumRungs);
    const float scale = 1.0f / static_cast<float>(total_steps);
    for (size_t i = 0; i < total_steps; i++) {
      double entropy = 0.0;
      for (int c = 0; c < media::kNumRungs; c++) {
        const double p = std::max<double>(probs.at(i, static_cast<size_t>(c)),
                                          1e-12);
        entropy -= p * std::log(p);
      }
      for (int c = 0; c < media::kNumRungs; c++) {
        const auto col = static_cast<size_t>(c);
        const float p = probs.at(i, col);
        float grad = advantages[i] * (p - (actions[i] == c ? 1.0f : 0.0f));
        grad += static_cast<float>(entropy_weight) * p *
                (std::log(std::max(p, 1e-12f)) + static_cast<float>(entropy));
        dlogits.at(i, col) = grad * scale;
      }
    }
    actor_grads.zero();
    actor.backward(actor_tape, dlogits, actor_grads);
    nn::clip_gradient_norm(actor_grads, PensieveTrainConfig::kGradientClip);
    actor_opt.step(actor, actor_grads);

    if (report != nullptr) {
      report->reward_per_iteration.push_back(
          batch_reward / static_cast<double>(total_steps));
      report->final_mean_reward = report->reward_per_iteration.back();
      report->final_stall_fraction =
          batch_stall / std::max(batch_time + batch_stall, 1e-9);
    }
  }

  return actor;
}

}  // namespace puffer::abr
