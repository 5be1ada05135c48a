#include "fugu/ttp_trainer.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "util/require.hh"
#include "util/thread_pool.hh"

namespace puffer::fugu {

namespace {

/// Expected and max-likelihood transmission times implied by a bin
/// distribution, honoring the model's target type.
std::pair<double, double> implied_tx_times(const TtpConfig& config,
                                           const std::span<const float> probs,
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

TtpFeatureTable::TtpFeatureTable(const TtpConfig& config,
                                 const TtpDataset& dataset,
                                 const int current_day, const int window_days,
                                 const double recency_decay)
    : dim_(static_cast<size_t>(config.input_dim())),
      has_size_input_(config.target == TtpTarget::kTransmissionTime) {
  const auto in_window = [&](const StreamLog& stream) {
    return stream.day > current_day - window_days && stream.day <= current_day;
  };
  size_t rows = 0;
  for (const StreamLog& stream : dataset) {
    rows += in_window(stream) ? stream.chunks.size() : 0;
  }
  reserve(rows);
  for (const StreamLog& stream : dataset) {
    if (in_window(stream)) {
      add_stream(config, stream,
                 static_cast<float>(
                     std::pow(recency_decay, current_day - stream.day)));
    }
  }
}

TtpFeatureTable::TtpFeatureTable(const TtpConfig& config,
                                 const TtpDataset& dataset)
    : dim_(static_cast<size_t>(config.input_dim())),
      has_size_input_(config.target == TtpTarget::kTransmissionTime) {
  size_t rows = 0;
  for (const StreamLog& stream : dataset) {
    rows += stream.chunks.size();
  }
  reserve(rows);
  for (const StreamLog& stream : dataset) {
    add_stream(config, stream, 1.0f);
  }
}

void TtpFeatureTable::reserve(const size_t rows) {
  require(rows <= std::numeric_limits<uint32_t>::max(),
          "TtpFeatureTable: too many rows");
  inputs_.reserve(rows * dim_);
  labels_.reserve(rows);
  weights_.reserve(rows);
}

void TtpFeatureTable::add_stream(const TtpConfig& config,
                                 const StreamLog& stream, const float weight) {
  TtpHistory history;
  std::vector<float> features;
  for (const ChunkLog& chunk : stream.chunks) {
    // At this point `history` holds the stream's earlier chunks — exactly
    // what the server knew when it decided this one.
    ttp_featurize_into(config, history, chunk.tcp_at_send,
                       static_cast<int64_t>(chunk.size_mb * 1e6), features);
    inputs_.insert(inputs_.end(), features.begin(), features.end());
    labels_.push_back(ttp_label_of(config, chunk.tx_time_s, chunk.size_mb));
    weights_.push_back(weight);
    history.record(chunk.size_mb, chunk.tx_time_s, config.history);
  }
  stream_ends_.push_back(labels_.size());
}

std::vector<uint32_t> TtpFeatureTable::example_rows(const int step) const {
  std::vector<uint32_t> rows;
  size_t begin = 0;
  for (const size_t end : stream_ends_) {
    for (size_t row = begin; row + static_cast<size_t>(step) < end; row++) {
      rows.push_back(static_cast<uint32_t>(row));
    }
    begin = end;
  }
  return rows;
}

void TtpFeatureTable::copy_inputs(const size_t row, const int step,
                                  float* out) const {
  const float* inputs = inputs_.data() + row * dim_;
  std::copy(inputs, inputs + dim_, out);
  if (has_size_input_) {
    out[dim_ - 1] = inputs[static_cast<size_t>(step) * dim_ + dim_ - 1];
  }
}

namespace {

/// One step network's shuffles (section 4.3), drawn from `rng`: shuffle
/// the step's example rows and keep the first `cap` (subsampling), then
/// shuffle once per epoch and call on_epoch(epoch). puffer::shuffle's draws
/// and swaps depend only on the length, so any row list of the same length
/// consumes `rng` identically.
template <typename OnEpoch>
void shuffle_epochs(std::vector<uint32_t>& rows, const size_t cap,
                    const int epochs, Rng& rng, const OnEpoch& on_epoch) {
  shuffle(std::span{rows}, rng);
  if (rows.size() > cap) {
    rows.resize(cap);
  }
  for (int epoch = 0; epoch < epochs; epoch++) {
    shuffle(std::span{rows}, rng);
    on_epoch(epoch);
  }
}

const TtpTrainConfig& validated(const TtpTrainConfig& train_config) {
  train_config.validate();
  return train_config;
}

/// The model training starts from: drawn from `rng`, then overwritten by
/// the warm start's weights when there is one.
TtpModel initial_model(const TtpConfig& config, Rng& rng,
                       const TtpModel* warm_start) {
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
  return model;
}

}  // namespace

TtpTrainer::TtpTrainer(const TtpConfig& config, const TtpDataset& dataset,
                       const int current_day,
                       const TtpTrainConfig& train_config, Rng& rng,
                       const TtpModel* warm_start)
    : train_config_(validated(train_config)),
      model_(initial_model(config, rng, warm_start)),
      table_(config, dataset, current_day, train_config.window_days,
             TtpTrainConfig::kRecencyDecay) {
  require(table_.rows() > 0, "train_ttp: no data in training window");
  const auto horizon = static_cast<size_t>(config.horizon);

  // Make every step's draws in the order one-network-after-another
  // training makes them, recording where each step starts. The jobs replay
  // their step's draws from that start, and `rng` ends where serial
  // training leaves it.
  step_rngs_.reserve(horizon);
  for (size_t step = 0; step < horizon; step++) {
    std::vector<uint32_t> rows = table_.example_rows(static_cast<int>(step));
    require(!rows.empty(), "train_ttp: no examples for step");
    step_rngs_.push_back(rng);
    shuffle_epochs(rows, train_config.max_examples_per_step,
                   train_config.epochs, rng, [](int /*epoch*/) {});
    examples_per_step_ = rows.size();
  }
  losses_.assign(horizon, std::vector<double>(
                              static_cast<size_t>(train_config.epochs)));
}

void TtpTrainer::train_step(const int step) {
  const auto slot = static_cast<size_t>(step);
  const int horizon = num_steps();
  nn::Mlp& net = model_.networks()[slot];
  nn::AdamOptimizer optimizer{TtpTrainConfig::kLearningRate};
  // Minibatch buffers hoisted out of the inner loop: the tape, gradients
  // and staging matrices resize in place, so the steady-state training step
  // allocates nothing.
  nn::Matrix inputs;
  nn::Matrix dlogits;
  nn::Tape tape;
  nn::Gradients grads = net.make_gradients();
  std::vector<int> labels;
  std::vector<float> weights;

  const auto batch = static_cast<size_t>(train_config_.batch_size);
  std::vector<uint32_t> rows = table_.example_rows(step);
  const auto train_epoch = [&](const int epoch) {
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t begin = 0; begin < rows.size(); begin += batch) {
      const size_t end = std::min(begin + batch, rows.size());
      const size_t n = end - begin;
      inputs.resize_no_zero(n, table_.input_dim());
      labels.resize(n);
      weights.resize(n);
      for (size_t r = 0; r < n; r++) {
        const uint32_t row = rows[begin + r];
        table_.copy_inputs(row, step, inputs.data() + r * inputs.cols());
        labels[r] = table_.label(row, step);
        weights[r] = table_.weight(row);
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
    losses_[slot][static_cast<size_t>(epoch)] =
        epoch_loss / static_cast<double>(batches) / horizon;
  };
  shuffle_epochs(rows, train_config_.max_examples_per_step,
                 train_config_.epochs, step_rngs_[slot], train_epoch);
}

TtpModel TtpTrainer::finish(TtpTrainReport* report) && {
  if (report != nullptr) {
    // Summed in step order: the floating-point order of serial training.
    report->loss_per_epoch.assign(static_cast<size_t>(train_config_.epochs),
                                  0.0);
    for (const std::vector<double>& step_losses : losses_) {
      for (size_t epoch = 0; epoch < step_losses.size(); epoch++) {
        report->loss_per_epoch[epoch] += step_losses[epoch];
      }
    }
    report->examples_per_step = examples_per_step_;
  }
  return std::move(model_);
}

TtpModel train_ttp(const TtpConfig& config, const TtpDataset& dataset,
                   const int current_day, const TtpTrainConfig& train_config,
                   Rng& rng, const TtpModel* warm_start,
                   TtpTrainReport* report, const int num_threads) {
  TtpTrainer trainer{config, dataset, current_day, train_config, rng,
                     warm_start};
  ThreadPool::run(
      trainer.num_steps(),
      ThreadPool::resolve(num_threads),
      [&trainer](const int64_t step) {
        trainer.train_step(static_cast<int>(step));
      });
  return std::move(trainer).finish(report);
}

TtpEvaluation evaluate_ttp(const TtpModel& model, const TtpDataset& dataset) {
  const TtpConfig& config = model.config();
  const TtpFeatureTable table{config, dataset};
  require(table.rows() > 0, "evaluate_ttp: empty dataset");

  TtpEvaluation eval;
  double se_expected = 0.0;
  double se_point = 0.0;
  std::vector<float> features(table.input_dim());
  nn::ForwardScratch scratch;
  size_t row = 0;  // the table's rows are the dataset's chunks, in order
  for (const StreamLog& stream : dataset) {
    for (const ChunkLog& chunk : stream.chunks) {
      table.copy_inputs(row, /*step=*/0, features.data());
      const std::span<const float> probs =
          model.predict_bins(0, features, scratch);
      const int label = table.label(row, 0);
      row++;
      const double p_true =
          std::max<double>(probs[static_cast<size_t>(label)], 1e-12);
      eval.cross_entropy += -std::log(p_true);

      int argmax = 0;
      for (int bin = 1; bin < kTtpBins; bin++) {
        if (probs[static_cast<size_t>(bin)] >
            probs[static_cast<size_t>(argmax)]) {
          argmax = bin;
        }
      }
      if (argmax == label) {
        eval.top1_accuracy += 1.0;
      }

      const auto [expected, point] =
          implied_tx_times(config, probs, chunk.size_mb);
      se_expected += (expected - chunk.tx_time_s) * (expected - chunk.tx_time_s);
      se_point += (point - chunk.tx_time_s) * (point - chunk.tx_time_s);
    }
  }
  const double n = static_cast<double>(table.rows());
  eval.cross_entropy /= n;
  eval.top1_accuracy /= n;
  eval.rmse_expected_s = std::sqrt(se_expected / n);
  eval.rmse_point_s = std::sqrt(se_point / n);
  eval.examples = table.rows();
  return eval;
}

}  // namespace puffer::fugu
