#ifndef PUFFER_NN_OPTIMIZER_HH
#define PUFFER_NN_OPTIMIZER_HH

#include "nn/mlp.hh"

namespace puffer::nn {

/// Adam (Kingma & Ba's default moments), the optimizer both trainers use:
/// Pensieve's actor and critic and the TTP's per-step networks.
class AdamOptimizer {
 public:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEpsilon = 1e-8;

  explicit AdamOptimizer(double learning_rate);

  /// Apply `grads` to `net`'s parameters; the moments take `net`'s shape on
  /// the first step.
  void step(Mlp& net, const Gradients& grads);

 private:
  double learning_rate_;
  Gradients first_moment_;
  Gradients second_moment_;
  long step_count_ = 0;
};

/// Clip gradients to a maximum global L2 norm (in place). Returns the norm
/// before clipping.
double clip_gradient_norm(Gradients& grads, double max_norm);

}  // namespace puffer::nn

#endif  // PUFFER_NN_OPTIMIZER_HH
