#include "nn/optimizer.hh"

#include <cmath>

#include "util/require.hh"

namespace puffer::nn {

AdamOptimizer::AdamOptimizer(const double learning_rate)
    : learning_rate_(learning_rate) {
  require(learning_rate > 0.0, "AdamOptimizer: learning rate must be positive");
}

void AdamOptimizer::step(Mlp& net, const Gradients& grads) {
  if (step_count_ == 0) {
    first_moment_ = net.make_gradients();
    second_moment_ = net.make_gradients();
  }
  step_count_++;
  const double bias1 = 1.0 - std::pow(kBeta1, step_count_);
  const double bias2 = 1.0 - std::pow(kBeta2, step_count_);
  const float b1 = static_cast<float>(kBeta1);
  const float b2 = static_cast<float>(kBeta2);
  const float eps = static_cast<float>(kEpsilon);
  const float lr = static_cast<float>(learning_rate_);

  auto update = [&](float& param, float& m, float& v, const float g) {
    m = b1 * m + (1.0f - b1) * g;
    v = b2 * v + (1.0f - b2) * g * g;
    const float m_hat = m / static_cast<float>(bias1);
    const float v_hat = v / static_cast<float>(bias2);
    param -= lr * m_hat / (std::sqrt(v_hat) + eps);
  };

  net.update([&](auto& weights, auto& biases) {
    for (size_t l = 0; l < weights.size(); l++) {
      Matrix& w = weights[l];
      for (size_t i = 0; i < w.size(); i++) {
        update(w.data()[i], first_moment_.weights[l].data()[i],
               second_moment_.weights[l].data()[i], grads.weights[l].data()[i]);
      }
      auto& b = biases[l];
      for (size_t i = 0; i < b.size(); i++) {
        update(b[i], first_moment_.biases[l][i], second_moment_.biases[l][i],
               grads.biases[l][i]);
      }
    }
  });
}

double clip_gradient_norm(Gradients& grads, const double max_norm) {
  require(max_norm > 0.0, "clip_gradient_norm: max_norm must be positive");
  double sum_sq = 0.0;
  for (const auto& w : grads.weights) {
    for (size_t i = 0; i < w.size(); i++) {
      sum_sq += static_cast<double>(w.data()[i]) * w.data()[i];
    }
  }
  for (const auto& b : grads.biases) {
    for (const float g : b) {
      sum_sq += static_cast<double>(g) * g;
    }
  }
  const double norm = std::sqrt(sum_sq);
  if (norm > max_norm) {
    grads.scale(static_cast<float>(max_norm / norm));
  }
  return norm;
}

}  // namespace puffer::nn
