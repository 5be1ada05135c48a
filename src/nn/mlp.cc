#include "nn/mlp.hh"

#include <algorithm>
#include <cmath>

#include "util/require.hh"
#include "util/rng.hh"

namespace puffer::nn {

void Gradients::zero() {
  for (auto& w : weights) {
    w.fill(0.0f);
  }
  for (auto& b : biases) {
    std::fill(b.begin(), b.end(), 0.0f);
  }
}

void Gradients::scale(const float factor) {
  for (auto& w : weights) {
    w.scale_inplace(factor);
  }
  for (auto& b : biases) {
    for (float& value : b) {
      value *= factor;
    }
  }
}

void Gradients::add(const Gradients& other) {
  require(weights.size() == other.weights.size(), "Gradients::add: mismatch");
  for (size_t l = 0; l < weights.size(); l++) {
    weights[l].add_inplace(other.weights[l]);
    for (size_t i = 0; i < biases[l].size(); i++) {
      biases[l][i] += other.biases[l][i];
    }
  }
}

Mlp::Mlp(std::vector<size_t> layer_sizes, const uint64_t seed)
    : layer_sizes_(std::move(layer_sizes)) {
  require(layer_sizes_.size() >= 2, "Mlp: need at least input and output sizes");
  Rng rng{seed};
  for (size_t l = 0; l + 1 < layer_sizes_.size(); l++) {
    const size_t fan_in = layer_sizes_[l];
    const size_t fan_out = layer_sizes_[l + 1];
    Matrix w{fan_in, fan_out};
    const double scale = std::sqrt(2.0 / static_cast<double>(fan_in));
    for (size_t i = 0; i < w.size(); i++) {
      w.data()[i] = static_cast<float>(rng.normal(0.0, scale));
    }
    weights_.push_back(std::move(w));
    biases_.emplace_back(fan_out, 0.0f);
  }
  pack();
}

bool Mlp::operator==(const Mlp& other) const {
  return layer_sizes_ == other.layer_sizes_ && weights_ == other.weights_ &&
         biases_ == other.biases_;
}

void Mlp::pack() {
  packed_.resize(weights_.size());
  for (size_t l = 0; l < weights_.size(); l++) {
    packed_[l].pack_from(weights_[l]);
  }
}

size_t Mlp::parameter_count() const {
  size_t total = 0;
  for (size_t l = 0; l < weights_.size(); l++) {
    total += weights_[l].size() + biases_[l].size();
  }
  return total;
}

void Mlp::forward(const Matrix& input, Matrix& logits) const {
  Matrix scratch;
  forward(input, logits, scratch);
}

void Mlp::forward(const Matrix& input, Matrix& logits, Matrix& scratch) const {
  require(input.cols() == input_size(), "Mlp::forward: input width mismatch");
  require(&input != &logits && &input != &scratch && &logits != &scratch,
          "Mlp::forward: input, logits and scratch must be distinct");
  const Matrix* src = &input;
  for (size_t l = 0; l < weights_.size(); l++) {
    // Alternate destinations so the last layer's write lands in `logits`.
    const size_t layers_after = weights_.size() - 1 - l;
    Matrix* dst = (layers_after % 2 == 0) ? &logits : &scratch;
    const Epilogue epilogue =
        l + 1 < weights_.size() ? Epilogue::kBiasRelu : Epilogue::kBias;
    gemm(*src, packed_[l], *dst, epilogue, biases_[l]);
    src = dst;
  }
}

std::vector<float> Mlp::forward_one(const std::span<const float> input) const {
  ForwardScratch scratch;
  const std::span<const float> logits = forward_one(input, scratch);
  return {logits.begin(), logits.end()};
}

std::span<float> Mlp::forward_one(const std::span<const float> input,
                                  ForwardScratch& scratch) const {
  require(input.size() == input_size(), "Mlp::forward_one: width mismatch");
  scratch.input.resize_no_zero(1, input_size());
  std::copy(input.begin(), input.end(), scratch.input.data());
  forward(scratch.input, scratch.logits, scratch.hidden);
  return scratch.logits.row(0);
}

void Mlp::forward_tape(const Matrix& input, Tape& tape) const {
  require(input.cols() == input_size(), "Mlp::forward_tape: width mismatch");
  tape.activations.resize(weights_.size() + 1);
  Matrix& staged = tape.activations.front();
  staged.resize_no_zero(input.rows(), input.cols());
  std::copy(input.data(), input.data() + input.size(), staged.data());
  for (size_t l = 0; l < weights_.size(); l++) {
    const Epilogue epilogue =
        l + 1 < weights_.size() ? Epilogue::kBiasRelu : Epilogue::kBias;
    gemm(tape.activations[l], packed_[l], tape.activations[l + 1], epilogue,
         biases_[l]);
  }
}

void Mlp::backward(Tape& tape, const Matrix& dlogits, Gradients& grads) const {
  require(tape.activations.size() == weights_.size() + 1,
          "Mlp::backward: tape does not match network depth");
  require(dlogits.rows() == tape.activations.back().rows() &&
              dlogits.cols() == output_size(),
          "Mlp::backward: dlogits shape mismatch");

  // delta = gradient w.r.t. pre-activation of the current layer.
  Matrix& delta = tape.delta;
  Matrix& next_delta = tape.next_delta;
  Matrix& dw = tape.dw;
  delta.resize_no_zero(dlogits.rows(), dlogits.cols());
  std::copy(dlogits.data(), dlogits.data() + dlogits.size(), delta.data());
  for (size_t l = weights_.size(); l-- > 0;) {
    const Matrix& layer_input = tape.activations[l];
    // dW = input^T * delta ; db = column sums of delta.
    matmul_at(layer_input, delta, dw);
    grads.weights[l].add_inplace(dw);
    for (size_t r = 0; r < delta.rows(); r++) {
      const float* row = delta.data() + r * delta.cols();
      for (size_t c = 0; c < delta.cols(); c++) {
        grads.biases[l][c] += row[c];
      }
    }
    if (l == 0) {
      break;
    }
    // Propagate: next_delta = delta * W^T, masked by ReLU derivative of the
    // layer-(l-1) output (which is post-ReLU, so derivative = output > 0).
    matmul_bt(delta, weights_[l], next_delta);
    // Written as a select (not a conditional store) so it vectorizes; a NaN
    // activation keeps its delta either way, since NaN <= 0 is false.
    const float* activation = tape.activations[l].data();
    float* masked = next_delta.data();
    for (size_t i = 0; i < next_delta.size(); i++) {
      masked[i] = activation[i] <= 0.0f ? 0.0f : masked[i];
    }
    std::swap(delta, next_delta);
  }
}

Gradients Mlp::make_gradients() const {
  Gradients grads;
  for (size_t l = 0; l < weights_.size(); l++) {
    grads.weights.emplace_back(weights_[l].rows(), weights_[l].cols());
    grads.biases.emplace_back(biases_[l].size(), 0.0f);
  }
  return grads;
}

}  // namespace puffer::nn
