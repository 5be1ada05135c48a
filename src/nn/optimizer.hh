#ifndef PUFFER_NN_OPTIMIZER_HH
#define PUFFER_NN_OPTIMIZER_HH

#include "nn/mlp.hh"

namespace puffer::nn {

/// Optimizer interface: applies accumulated gradients to an Mlp's parameters.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual void step(Mlp& net, const Gradients& grads) = 0;
  virtual void reset() = 0;
};

/// Plain SGD with optional momentum — what the paper uses for the TTP
/// ("stochastic gradient descent", section 4.3).
class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(double learning_rate, double momentum = 0.0);

  void step(Mlp& net, const Gradients& grads) override;
  void reset() override;

  [[nodiscard]] double learning_rate() const { return learning_rate_; }

 private:
  double learning_rate_;
  double momentum_;
  Gradients velocity_;
  bool initialized_ = false;
};

/// Adam; used for the Pensieve actor/critic training where SGD is fragile.
class AdamOptimizer final : public Optimizer {
 public:
  explicit AdamOptimizer(double learning_rate, double beta1 = 0.9,
                         double beta2 = 0.999, double epsilon = 1e-8);

  void step(Mlp& net, const Gradients& grads) override;
  void reset() override;

 private:
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  Gradients first_moment_;
  Gradients second_moment_;
  long step_count_ = 0;
  bool initialized_ = false;
};

/// Clip gradients to a maximum global L2 norm (in place). Returns the norm
/// before clipping.
double clip_gradient_norm(Gradients& grads, double max_norm);

}  // namespace puffer::nn

#endif  // PUFFER_NN_OPTIMIZER_HH
