#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "nn/loss.hh"
#include "nn/matrix.hh"
#include "nn/mlp.hh"
#include "nn/optimizer.hh"
#include "nn/serialize.hh"
#include "util/require.hh"
#include "util/rng.hh"

namespace puffer::nn {
namespace {

TEST(Matrix, ShapeAndFill) {
  Matrix m{2, 3, 1.5f};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.fill(0.0f);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(Matrix, MatmulKnownValues) {
  Matrix a{2, 2};
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Matrix b{2, 2};
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  Matrix c;
  matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a{2, 3}, b{2, 3}, c;
  EXPECT_THROW(matmul(a, b, c), RequirementError);
}

TEST(Matrix, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng{11};
  Matrix a{3, 4}, b{5, 4}, bt{4, 5};
  for (size_t i = 0; i < a.size(); i++) {
    a.data()[i] = static_cast<float>(rng.normal());
  }
  for (size_t r = 0; r < b.rows(); r++) {
    for (size_t c = 0; c < b.cols(); c++) {
      b.at(r, c) = static_cast<float>(rng.normal());
      bt.at(c, r) = b.at(r, c);
    }
  }
  Matrix direct, via_bt;
  matmul(a, bt, direct);
  matmul_bt(a, b, via_bt);
  ASSERT_EQ(direct.rows(), via_bt.rows());
  for (size_t i = 0; i < direct.size(); i++) {
    EXPECT_NEAR(direct.data()[i], via_bt.data()[i], 1e-4);
  }

  // a^T * a via matmul_at vs explicit transpose.
  Matrix at{4, 3};
  for (size_t r = 0; r < a.rows(); r++) {
    for (size_t c = 0; c < a.cols(); c++) {
      at.at(c, r) = a.at(r, c);
    }
  }
  Matrix direct2, via_at;
  matmul(at, a, direct2);
  matmul_at(a, a, via_at);
  for (size_t i = 0; i < direct2.size(); i++) {
    EXPECT_NEAR(direct2.data()[i], via_at.data()[i], 1e-4);
  }
}

TEST(Matrix, AddRowBias) {
  Matrix m{2, 2, 1.0f};
  const std::vector<float> bias = {0.5f, -1.0f};
  add_row_bias(m, bias);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(m.at(1, 1), 0.0f);
}

TEST(Softmax, RowsSumToOne) {
  Matrix logits{2, 4};
  logits.at(0, 0) = 5.0f;
  logits.at(1, 3) = -2.0f;
  Matrix probs;
  softmax(logits, probs);
  for (size_t r = 0; r < 2; r++) {
    float total = 0.0f;
    for (size_t c = 0; c < 4; c++) {
      EXPECT_GT(probs.at(r, c), 0.0f);
      total += probs.at(r, c);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  std::vector<float> row = {1000.0f, 1000.0f, 999.0f};
  softmax_inplace(row);
  EXPECT_FALSE(std::isnan(row[0]));
  EXPECT_NEAR(row[0], row[1], 1e-6);
  EXPECT_LT(row[2], row[0]);
}

TEST(CrossEntropy, MatchesManualComputation) {
  Matrix logits{1, 2};
  logits.at(0, 0) = 0.0f;
  logits.at(0, 1) = 0.0f;
  const std::vector<int> labels = {0};
  Matrix dlogits;
  const double loss = softmax_cross_entropy(logits, labels, dlogits);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
  // Gradient: probs - onehot = (0.5-1, 0.5-0).
  EXPECT_NEAR(dlogits.at(0, 0), -0.5f, 1e-5);
  EXPECT_NEAR(dlogits.at(0, 1), 0.5f, 1e-5);
}

TEST(CrossEntropy, WeightsScaleContribution) {
  Matrix logits{2, 2};
  logits.at(0, 0) = 2.0f;
  logits.at(1, 1) = 2.0f;
  const std::vector<int> labels = {0, 0};
  const std::vector<float> weights = {1.0f, 0.0f};
  Matrix dlogits;
  const double loss = softmax_cross_entropy(logits, labels, weights, dlogits);
  // Second row has zero weight: loss is that of the first row alone.
  Matrix single{1, 2};
  single.at(0, 0) = 2.0f;
  Matrix dsingle;
  const double ref = softmax_cross_entropy(single, std::vector<int>{0}, dsingle);
  EXPECT_NEAR(loss, ref, 1e-6);
  EXPECT_FLOAT_EQ(dlogits.at(1, 0), 0.0f);
}

TEST(CrossEntropy, LabelOutOfRangeThrows) {
  Matrix logits{1, 2};
  Matrix dlogits;
  EXPECT_THROW(
      softmax_cross_entropy(logits, std::vector<int>{5}, dlogits),
      RequirementError);
}

TEST(MseLoss, ValueAndGradient) {
  Matrix pred{2, 1};
  pred.at(0, 0) = 1.0f;
  pred.at(1, 0) = 3.0f;
  const std::vector<float> targets = {0.0f, 3.0f};
  Matrix dpred;
  const double loss = mse_loss(pred, targets, dpred);
  EXPECT_NEAR(loss, 0.5, 1e-6);
  EXPECT_NEAR(dpred.at(0, 0), 1.0f, 1e-5);  // 2/N * err = 1 * 1
  EXPECT_NEAR(dpred.at(1, 0), 0.0f, 1e-5);
}

TEST(Mlp, OutputShapeAndDeterminism) {
  Mlp a{{4, 8, 3}, 42};
  Mlp b{{4, 8, 3}, 42};
  const std::vector<float> x = {0.1f, -0.2f, 0.3f, 0.4f};
  EXPECT_EQ(a.forward_one(x), b.forward_one(x));
  EXPECT_EQ(a.forward_one(x).size(), 3u);
}

TEST(Mlp, ParameterCount) {
  const Mlp net{{22, 64, 64, 21}, 1};
  EXPECT_EQ(net.parameter_count(),
            22u * 64 + 64 + 64u * 64 + 64 + 64u * 21 + 21);
}

TEST(Mlp, BatchForwardMatchesSingle) {
  const Mlp net{{5, 16, 4}, 3};
  Rng rng{8};
  Matrix batch{6, 5};
  for (size_t i = 0; i < batch.size(); i++) {
    batch.data()[i] = static_cast<float>(rng.normal());
  }
  Matrix logits;
  net.forward(batch, logits);
  for (size_t r = 0; r < 6; r++) {
    const std::vector<float> row_input{batch.row(r).begin(),
                                       batch.row(r).end()};
    const std::vector<float> single = net.forward_one(row_input);
    for (size_t c = 0; c < 4; c++) {
      EXPECT_NEAR(logits.at(r, c), single[c], 1e-5);
    }
  }
}

/// A freshly built Mlp shared read-only by several threads (how one trained
/// TTP serves many shards) gives every thread the serial result, bit for bit.
TEST(Mlp, ConcurrentForwardOnFreshModelMatchesSerial) {
  const std::vector<size_t> sizes = {22, 64, 64, 21};
  std::vector<float> x(22);
  Rng rng{12};
  for (float& v : x) {
    v = static_cast<float>(rng.normal());
  }
  const std::vector<float> serial = Mlp{sizes, 77}.forward_one(x);

  const Mlp shared{sizes, 77};
  std::vector<std::vector<float>> results(4);
  {
    std::vector<std::jthread> threads;
    for (std::vector<float>& result : results) {
      threads.emplace_back([&shared, &x, &result] {
        result = shared.forward_one(x);
      });
    }
  }
  for (const std::vector<float>& result : results) {
    ASSERT_EQ(result.size(), serial.size());
    EXPECT_EQ(std::memcmp(result.data(), serial.data(),
                          serial.size() * sizeof(float)),
              0);
  }
}

/// Central-difference gradient check of backprop through the full network,
/// parameterized over architectures (including a linear one).
class MlpGradientCheck
    : public ::testing::TestWithParam<std::vector<size_t>> {};

TEST_P(MlpGradientCheck, BackpropMatchesNumericalGradient) {
  const std::vector<size_t> arch = GetParam();
  Mlp net{arch, 17};
  Rng rng{23};
  const size_t batch_size = 3;
  Matrix inputs{batch_size, arch.front()};
  for (size_t i = 0; i < inputs.size(); i++) {
    inputs.data()[i] = static_cast<float>(rng.normal());
  }
  std::vector<int> labels(batch_size);
  for (auto& label : labels) {
    label = static_cast<int>(rng.uniform_int(0, static_cast<int64_t>(arch.back()) - 1));
  }

  auto loss_fn = [&]() {
    Matrix logits;
    net.forward(inputs, logits);
    Matrix scratch;
    return softmax_cross_entropy(logits, labels, scratch);
  };

  Tape tape;
  net.forward_tape(inputs, tape);
  Matrix dlogits;
  softmax_cross_entropy(tape.activations.back(), labels, dlogits);
  Gradients grads = net.make_gradients();
  net.backward(tape, dlogits, grads);

  // Spot-check a sample of weights in every layer. Each perturbation goes
  // through update() so the packed panels follow it (the same path
  // optimizers take).
  const float eps = 1e-2f;
  auto poke = [&net](const size_t layer, const size_t idx, const float value) {
    net.update([&](auto& weights, auto& /*biases*/) {
      weights[layer].data()[idx] = value;
    });
  };
  for (size_t l = 0; l < net.num_layers(); l++) {
    const size_t layer_weights = net.weights()[l].size();
    for (size_t probe = 0; probe < 5; probe++) {
      const size_t idx = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(layer_weights) - 1));
      const float original = net.weights()[l].data()[idx];
      poke(l, idx, original + eps);
      const double up = loss_fn();
      poke(l, idx, original - eps);
      const double down = loss_fn();
      poke(l, idx, original);
      const double numerical = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grads.weights[l].data()[idx], numerical,
                  2e-2 * std::max(1.0, std::abs(numerical)))
          << "layer " << l << " weight " << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, MlpGradientCheck,
    ::testing::Values(std::vector<size_t>{4, 3},           // linear
                      std::vector<size_t>{6, 16, 5},       // one hidden
                      std::vector<size_t>{22, 64, 64, 21}  // the TTP shape
                      ));

TEST(Training, AdamLearnsXorWithHiddenLayer) {
  Matrix inputs{4, 2};
  inputs.at(0, 0) = 0;
  inputs.at(0, 1) = 0;
  inputs.at(1, 0) = 0;
  inputs.at(1, 1) = 1;
  inputs.at(2, 0) = 1;
  inputs.at(2, 1) = 0;
  inputs.at(3, 0) = 1;
  inputs.at(3, 1) = 1;
  const std::vector<int> labels = {0, 1, 1, 0};
  Mlp net{{2, 16, 2}, 77};
  AdamOptimizer opt{5e-3};
  double loss = 0.0;
  for (int epoch = 0; epoch < 2000; epoch++) {
    Tape tape;
    net.forward_tape(inputs, tape);
    Matrix dlogits;
    loss = softmax_cross_entropy(tape.activations.back(), labels, dlogits);
    Gradients grads = net.make_gradients();
    net.backward(tape, dlogits, grads);
    opt.step(net, grads);
  }
  EXPECT_LT(loss, 0.05);  // XOR is not linearly separable; depth matters
}

TEST(Optimizer, GradientClippingBoundsNorm) {
  Mlp net{{3, 4}, 1};
  Gradients grads = net.make_gradients();
  grads.weights[0].fill(10.0f);
  const double before = clip_gradient_norm(grads, 1.0);
  EXPECT_GT(before, 1.0);
  double sum_sq = 0.0;
  for (size_t i = 0; i < grads.weights[0].size(); i++) {
    sum_sq += static_cast<double>(grads.weights[0].data()[i]) *
              grads.weights[0].data()[i];
  }
  EXPECT_NEAR(std::sqrt(sum_sq), 1.0, 1e-4);
}

TEST(Serialize, RoundTripPreservesNetworkExactly) {
  const Mlp original{{7, 12, 5}, 99};
  std::stringstream buffer;
  save_mlp(original, buffer);
  const Mlp restored = load_mlp(buffer);
  EXPECT_EQ(original, restored);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream buffer;
  buffer << "not a model";
  EXPECT_THROW(load_mlp(buffer), RequirementError);
}

TEST(Serialize, FileRoundTrip) {
  const Mlp original{{4, 6, 3}, 123};
  const std::string path = ::testing::TempDir() + "/mlp_roundtrip.bin";
  save_mlp_file(original, path);
  const std::optional<Mlp> restored = try_load_mlp_file(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(original, *restored);
}

TEST(Serialize, DamagedFileIsAMissNotAnError) {
  // A save killed half-way leaves a truncated file; a stray file can hold
  // anything. Both must read as "no cached model", like a missing file.
  const Mlp original{{4, 6, 3}, 123};
  const std::string path = ::testing::TempDir() + "/mlp_damaged.bin";
  save_mlp_file(original, path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_FALSE(try_load_mlp_file(path).has_value());
  std::ofstream{path, std::ios::binary} << "not a model";
  EXPECT_FALSE(try_load_mlp_file(path).has_value());
  std::filesystem::remove(path);
  EXPECT_FALSE(try_load_mlp_file(path).has_value());
}

}  // namespace
}  // namespace puffer::nn
