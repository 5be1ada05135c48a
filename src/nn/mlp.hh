#ifndef PUFFER_NN_MLP_HH
#define PUFFER_NN_MLP_HH

#include <cstdint>
#include <span>
#include <vector>

#include "nn/gemm.hh"
#include "nn/matrix.hh"

namespace puffer::nn {

/// Gradients of all parameters of an Mlp, in layer order.
struct Gradients {
  std::vector<Matrix> weights;
  std::vector<std::vector<float>> biases;

  void zero();
  void scale(float factor);
  void add(const Gradients& other);
};

/// Forward-pass activation tape needed for backprop, plus the scratch
/// buffers backward() ping-pongs through. All buffers resize in place, so a
/// Tape hoisted out of a training loop makes forward_tape + backward
/// allocation-free once warmed to shape (mirroring ForwardScratch for
/// inference).
struct Tape {
  /// activations[0] is the input batch; activations[i] (i >= 1) is the
  /// post-activation output of layer i-1.
  std::vector<Matrix> activations;

  /// backward() scratch (gradient w.r.t. pre-activations, per-layer dW).
  Matrix delta;
  Matrix next_delta;
  Matrix dw;
};

/// Reusable buffers for repeated inference. Matrix::resize_no_zero keeps
/// capacity, so after the first call at a given shape no further allocation
/// happens — this is what keeps the per-decision hot paths (TTP, Pensieve
/// actor) allocation-free.
struct ForwardScratch {
  Matrix input;   ///< 1 x input staging row for forward_one
  Matrix logits;  ///< final layer output
  Matrix hidden;  ///< ping-pong buffer for intermediate activations
};

/// Fully-connected network with ReLU hidden activations and a linear output
/// layer (logits). This mirrors the paper's TTP: 22 -> 64 -> 64 -> 21, and is
/// also used for the Pensieve actor/critic networks.
///
/// Weight matrices are packed into the GEMM layer's panel layout whenever
/// the parameters change (at construction and in update()), so forward,
/// forward_one, forward_tape and backward all run on packed panels instead
/// of re-striding the row-major storage every call. Const use never writes,
/// so one Mlp may serve forwards from many threads at once.
class Mlp {
 public:
  /// `layer_sizes` = {input, hidden..., output}; at least {in, out}.
  /// Weights use He initialization from `seed` (deterministic).
  Mlp(std::vector<size_t> layer_sizes, uint64_t seed);

  [[nodiscard]] size_t input_size() const { return layer_sizes_.front(); }
  [[nodiscard]] size_t output_size() const { return layer_sizes_.back(); }
  [[nodiscard]] size_t num_layers() const { return weights_.size(); }
  [[nodiscard]] const std::vector<size_t>& layer_sizes() const {
    return layer_sizes_;
  }
  [[nodiscard]] size_t parameter_count() const;

  /// Inference: compute logits for a batch. `logits` is resized.
  void forward(const Matrix& input, Matrix& logits) const;

  /// Same, ping-ponging intermediate activations between `logits` and the
  /// caller-owned `scratch` buffer: zero allocation once both have warmed
  /// to shape. Per-row results are bit-identical to forward()/forward_one()
  /// (every output row accumulates in the same order regardless of batch
  /// size or destination buffer).
  void forward(const Matrix& input, Matrix& logits, Matrix& scratch) const;

  /// forward() over `input`'s rows in place (row stride input_size()),
  /// which come in runs that share every input but the last, as
  /// gemm_shared_prefix takes them: the first layer multiplies each run's
  /// shared inputs once. Per-row results are bitwise forward()'s.
  void forward_runs(const float* input, std::span<const uint32_t> runs,
                    Matrix& logits, Matrix& scratch) const;

  /// Convenience single-example inference.
  [[nodiscard]] std::vector<float> forward_one(std::span<const float> input) const;

  /// Scratch-reusing single-example inference; the returned span aliases
  /// scratch.logits and stays valid until the scratch is next used. The
  /// span is mutable so callers can softmax in place.
  std::span<float> forward_one(std::span<const float> input,
                               ForwardScratch& scratch) const;

  /// Training forward pass: records activations in `tape`, leaves logits in
  /// tape.activations.back(). Tape buffers are reused in place.
  void forward_tape(const Matrix& input, Tape& tape) const;

  /// Backprop: given dLoss/dLogits (same shape as logits), accumulate
  /// parameter gradients into `grads` (which must be shaped by
  /// `make_gradients`, and may already hold partial sums). Uses the tape's
  /// scratch buffers, so repeated calls on a warm tape do not allocate.
  void backward(Tape& tape, const Matrix& dlogits, Gradients& grads) const;

  [[nodiscard]] Gradients make_gradients() const;

  /// Parameter access (used by serialization and reference kernels).
  [[nodiscard]] const std::vector<Matrix>& weights() const { return weights_; }
  [[nodiscard]] const std::vector<std::vector<float>>& biases() const {
    return biases_;
  }

  /// The one way to change parameters: calls edit(weights, biases) and then
  /// repacks the panels, so no forward can run on stale panels. The edit
  /// must keep every shape. Not safe while another thread uses the Mlp.
  template <typename Edit>
  void update(Edit&& edit) {
    edit(weights_, biases_);
    pack();
  }

  /// Compares parameters (the packed panels follow from them).
  bool operator==(const Mlp& other) const;

 private:
  void pack();

  /// Layers `first` on, from `src` (layer first's input), ping-ponging
  /// between `logits` and `scratch` so the last layer writes `logits`.
  void forward_layers(size_t first, const Matrix& src, Matrix& logits,
                      Matrix& scratch) const;

  std::vector<size_t> layer_sizes_;
  /// weights_[l] has shape (layer_sizes_[l] x layer_sizes_[l+1]).
  std::vector<Matrix> weights_;
  std::vector<std::vector<float>> biases_;
  /// Panel-major copies of weights_ (see gemm.hh), rebuilt by pack().
  std::vector<PackedMatrix> packed_;
};

}  // namespace puffer::nn

#endif  // PUFFER_NN_MLP_HH
