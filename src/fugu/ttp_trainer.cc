#include "fugu/ttp_trainer.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "util/require.hh"

namespace puffer::fugu {

namespace {

/// Expected and max-likelihood transmission times implied by a bin
/// distribution, honoring the model's target type.
std::pair<double, double> implied_tx_times(const TtpConfig& config,
                                           const std::vector<float>& probs,
                                           const double size_mb) {
  double expected = 0.0;
  int argmax = 0;
  for (int bin = 0; bin < kTtpBins; bin++) {
    double time_s;
    if (config.target == TtpTarget::kTransmissionTime) {
      time_s = ttp_bin_midpoint(bin);
    } else {
      time_s = std::clamp(size_mb * 1e6 / throughput_bin_midpoint_bps(bin),
                          1e-3, 60.0);
    }
    expected += static_cast<double>(probs[static_cast<size_t>(bin)]) * time_s;
    if (probs[static_cast<size_t>(bin)] > probs[static_cast<size_t>(argmax)]) {
      argmax = bin;
    }
  }
  double point;
  if (config.target == TtpTarget::kTransmissionTime) {
    point = ttp_bin_midpoint(argmax);
  } else {
    point = std::clamp(size_mb * 1e6 / throughput_bin_midpoint_bps(argmax),
                       1e-3, 60.0);
  }
  return {expected, point};
}

}  // namespace

void TtpTrainConfig::validate() const {
  require(epochs >= 1, "TtpTrainConfig: epochs must be >= 1");
  require(batch_size >= 1, "TtpTrainConfig: batch_size must be >= 1");
  require(window_days >= 1, "TtpTrainConfig: window_days must be >= 1");
  require(max_examples_per_step >= 1,
          "TtpTrainConfig: max_examples_per_step must be >= 1");
}

std::vector<TtpExample> build_examples(const TtpConfig& config,
                                       const TtpDataset& dataset,
                                       const int step, const int current_day,
                                       const double recency_decay) {
  std::vector<TtpExample> examples;
  TtpHistory history;
  for (const auto& stream : dataset) {
    history.clear();
    const float weight = static_cast<float>(
        std::pow(recency_decay, std::max(0, current_day - stream.day)));
    const auto n = static_cast<int64_t>(stream.chunks.size());
    for (int64_t i = 0; i + step < n; i++) {
      const ChunkLog& decision_chunk = stream.chunks[static_cast<size_t>(i)];
      const ChunkLog& target_chunk =
          stream.chunks[static_cast<size_t>(i + step)];

      // At this point `history` holds chunks 0..i-1 — exactly what the
      // server knew when it decided chunk i.
      TtpExample example;
      example.features = ttp_featurize(
          config, history, decision_chunk.tcp_at_send,
          static_cast<int64_t>(target_chunk.size_mb * 1e6));
      example.label =
          ttp_label_of(config, target_chunk.tx_time_s, target_chunk.size_mb);
      example.weight = weight;
      example.true_tx_time_s = target_chunk.tx_time_s;
      example.size_mb = target_chunk.size_mb;
      examples.push_back(std::move(example));

      history.record(decision_chunk.size_mb, decision_chunk.tx_time_s,
                     config.history);
    }
  }
  return examples;
}

TtpModel train_ttp(const TtpConfig& config, const TtpDataset& dataset,
                   const int current_day, const TtpTrainConfig& train_config,
                   Rng& rng, const TtpModel* warm_start,
                   TtpTrainReport* report) {
  train_config.validate();
  TtpModel model{config, rng.engine()()};
  if (warm_start != nullptr) {
    require(warm_start->config().horizon == config.horizon,
            "train_ttp: warm start must share the horizon");
    for (int k = 0; k < config.horizon; k++) {
      require(warm_start->networks()[static_cast<size_t>(k)].layer_sizes() ==
                  model.networks()[static_cast<size_t>(k)].layer_sizes(),
              "train_ttp: warm start must share the architecture");
    }
    model.networks() = warm_start->networks();
  }

  const TtpDataset window = [&] {
    TtpDataset filtered;
    for (const auto& stream : dataset) {
      if (stream.day > current_day - train_config.window_days &&
          stream.day <= current_day) {
        filtered.push_back(stream);
      }
    }
    return filtered;
  }();
  require(!window.empty(), "train_ttp: no data in training window");

  if (report != nullptr) {
    report->loss_per_epoch.assign(static_cast<size_t>(train_config.epochs),
                                  0.0);
  }

  for (int step = 0; step < config.horizon; step++) {
    std::vector<TtpExample> examples = build_examples(
        config, window, step, current_day, TtpTrainConfig::kRecencyDecay);
    require(!examples.empty(), "train_ttp: no examples for step");

    // Subsample if oversized, then shuffle (section 4.3).
    std::shuffle(examples.begin(), examples.end(), rng.engine());
    if (examples.size() > train_config.max_examples_per_step) {
      examples.resize(train_config.max_examples_per_step);
    }
    if (report != nullptr) {
      report->examples_per_step = examples.size();
    }

    nn::Mlp& net = model.networks()[static_cast<size_t>(step)];
    nn::AdamOptimizer optimizer{TtpTrainConfig::kLearningRate};

    // Minibatch buffers hoisted out of the inner loop: the tape, gradients
    // and staging matrices resize in place, so the steady-state training
    // step allocates nothing.
    nn::Matrix inputs;
    nn::Matrix dlogits;
    nn::Tape tape;
    nn::Gradients grads = net.make_gradients();
    std::vector<int> labels;
    std::vector<float> weights;

    const size_t batch = static_cast<size_t>(train_config.batch_size);
    for (int epoch = 0; epoch < train_config.epochs; epoch++) {
      std::shuffle(examples.begin(), examples.end(), rng.engine());
      double epoch_loss = 0.0;
      size_t batches = 0;
      for (size_t begin = 0; begin < examples.size(); begin += batch) {
        const size_t end = std::min(begin + batch, examples.size());
        const size_t rows = end - begin;
        inputs.resize_no_zero(rows, static_cast<size_t>(config.input_dim()));
        labels.resize(rows);
        weights.resize(rows);
        for (size_t r = 0; r < rows; r++) {
          const TtpExample& ex = examples[begin + r];
          std::copy(ex.features.begin(), ex.features.end(),
                    inputs.data() + r * inputs.cols());
          labels[r] = ex.label;
          weights[r] = ex.weight;
        }
        net.forward_tape(inputs, tape);
        const double loss = nn::softmax_cross_entropy(
            tape.activations.back(), labels, weights, dlogits);
        grads.zero();
        net.backward(tape, dlogits, grads);
        optimizer.step(net, grads);
        epoch_loss += loss;
        batches++;
      }
      if (report != nullptr && batches > 0) {
        report->loss_per_epoch[static_cast<size_t>(epoch)] +=
            epoch_loss / static_cast<double>(batches) / config.horizon;
      }
    }
  }
  return model;
}

TtpEvaluation evaluate_ttp(const TtpModel& model, const TtpDataset& dataset) {
  const TtpConfig& config = model.config();
  std::vector<TtpExample> examples =
      build_examples(config, dataset, /*step=*/0, /*current_day=*/0,
                     /*recency_decay=*/1.0);
  require(!examples.empty(), "evaluate_ttp: empty dataset");

  TtpEvaluation eval;
  double se_expected = 0.0;
  double se_point = 0.0;
  for (const auto& example : examples) {
    const std::vector<float> probs = model.predict_bins(0, example.features);
    const int label =
        model.label_of(example.true_tx_time_s, example.size_mb);
    const double p_true =
        std::max<double>(probs[static_cast<size_t>(label)], 1e-12);
    eval.cross_entropy += -std::log(p_true);

    int argmax = 0;
    for (int bin = 1; bin < kTtpBins; bin++) {
      if (probs[static_cast<size_t>(bin)] > probs[static_cast<size_t>(argmax)]) {
        argmax = bin;
      }
    }
    if (argmax == label) {
      eval.top1_accuracy += 1.0;
    }

    const auto [expected, point] =
        implied_tx_times(config, probs, example.size_mb);
    se_expected += (expected - example.true_tx_time_s) *
                   (expected - example.true_tx_time_s);
    se_point += (point - example.true_tx_time_s) *
                (point - example.true_tx_time_s);
  }
  const double n = static_cast<double>(examples.size());
  eval.cross_entropy /= n;
  eval.top1_accuracy /= n;
  eval.rmse_expected_s = std::sqrt(se_expected / n);
  eval.rmse_point_s = std::sqrt(se_point / n);
  eval.examples = examples.size();
  return eval;
}

}  // namespace puffer::fugu
