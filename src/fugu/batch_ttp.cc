#include "fugu/batch_ttp.hh"

#include <algorithm>
#include <cstring>

#include "nn/loss.hh"
#include "util/require.hh"

namespace puffer::fugu {

size_t TtpInferenceBatch::group_for(const TtpModel& model, const int step) {
  const int clamped_step =
      std::clamp(step, 0, model.config().horizon - 1);
  const nn::Mlp& network =
      model.networks()[static_cast<size_t>(clamped_step)];
  for (size_t g = 0; g < groups_.size(); g++) {
    if (groups_[g].network == &network) {
      return g;
    }
  }
  require(network.input_size() >= 1, "TtpInferenceBatch: no input features");
  groups_.push_back(Group{});
  groups_.back().network = &network;
  groups_.back().input_dim = network.input_size();
  return groups_.size() - 1;
}

TtpInferenceBatch::Slot TtpInferenceBatch::enqueue_row(
    const size_t group_index, const std::span<const float> features) {
  require(group_index < groups_.size(), "TtpInferenceBatch: bad group");
  Group& group = groups_[group_index];
  require(features.size() == group.input_dim,
          "TtpInferenceBatch: feature width mismatch");
  const size_t shared = group.input_dim - 1;
  if (group.rows_used > 0 &&
      std::memcmp(group.staging.data() + group.staging.size() -
                      group.input_dim,
                  features.data(), shared * sizeof(float)) == 0) {
    group.runs.back()++;
  } else {
    group.runs.push_back(1);
  }
  group.staging.insert(group.staging.end(), features.begin(), features.end());
  const Slot slot{group_index, group.rows_used};
  group.rows_used++;
  rows_pending_++;
  return slot;
}

void TtpInferenceBatch::run() {
  for (Group& group : groups_) {
    if (group.rows_used == 0) {
      continue;
    }
    group.network->forward_runs(group.staging.data(), group.runs,
                                group.logits, group.scratch);
    for (size_t r = 0; r < group.logits.rows(); r++) {
      nn::softmax_inplace(group.logits.row(r));
    }
    total_rows_ += static_cast<int64_t>(group.rows_used);
    total_forwards_++;
    max_forward_rows_ =
        std::max(max_forward_rows_, static_cast<int64_t>(group.rows_used));
  }
  rows_pending_ = 0;
}

std::span<const float> TtpInferenceBatch::probs(const Slot& slot) const {
  require(slot.group < groups_.size(), "TtpInferenceBatch: bad slot group");
  const Group& group = groups_[slot.group];
  require(slot.row < group.logits.rows(),
          "TtpInferenceBatch: slot not answered (run() the batch first)");
  return group.logits.row(slot.row);
}

void TtpInferenceBatch::clear() {
  for (Group& group : groups_) {
    group.staging.clear();
    group.runs.clear();
    group.rows_used = 0;
    group.logits.resize(0, 0);
  }
  rows_pending_ = 0;
}

BatchTtpPredictor::BatchTtpPredictor(std::shared_ptr<const TtpModel> model,
                                     const bool point_estimate)
    : model_(std::move(model)), point_estimate_(point_estimate) {
  require(model_ != nullptr, "BatchTtpPredictor: model required");
}

void BatchTtpPredictor::begin_decision(const abr::AbrObservation& obs) {
  current_tcp_ = obs.tcp;
}

void BatchTtpPredictor::enqueue_rows(
    const std::span<const abr::TxTimeQuery> queries, TtpInferenceBatch& batch,
    std::vector<TtpInferenceBatch::Slot>& slots) {
  const TtpConfig& config = model_->config();
  // All rows of one decision share history and tcp_info; only the proposed
  // size differs, so featurize once and patch the size element per row.
  ttp_featurize_into(config, history_, current_tcp_,
                     queries.empty() ? 0 : queries.front().size_bytes,
                     features_);
  slots.clear();
  slots.reserve(queries.size());
  // Queries arrive step-major (enumerate_tx_time_queries), so resolve each
  // step's row group once instead of once per row.
  int current_step = -1;
  size_t group = 0;
  for (const abr::TxTimeQuery& query : queries) {
    if (config.target == TtpTarget::kTransmissionTime) {
      features_.back() = static_cast<float>(
          static_cast<double>(query.size_bytes) / 1e6);
    }
    if (query.step != current_step) {
      group = batch.group_for(*model_, query.step);
      current_step = query.step;
    }
    slots.push_back(batch.enqueue_row(group, features_));
  }
}

void BatchTtpPredictor::distribution_into(const TtpInferenceBatch& batch,
                                          const TtpInferenceBatch::Slot& slot,
                                          const int64_t size_bytes,
                                          abr::TxTimeDistribution& out) const {
  ttp_distribution_into(model_->config(), batch.probs(slot), size_bytes, out);
  if (point_estimate_) {
    collapse_to_point_estimate(out);
  }
}

abr::TxTimeDistribution BatchTtpPredictor::predict(const int step,
                                                   const int64_t size_bytes) {
  // Scalar fallback (direct predictor use outside an MPC plan): a
  // one-query batch keeps the answers identical to the fused path.
  const abr::TxTimeQuery query{step, size_bytes};
  local_batch_.clear();
  enqueue_rows({&query, 1}, local_batch_, local_slots_);
  local_batch_.run();
  abr::TxTimeDistribution dist;
  distribution_into(local_batch_, local_slots_[0], size_bytes, dist);
  return dist;
}

void BatchTtpPredictor::predict_batch(
    const std::span<const abr::TxTimeQuery> queries,
    std::vector<abr::TxTimeDistribution>& out) {
  if (staged_batch_ != nullptr) {
    // Fleet path: this decision's rows were staged into the shared batch,
    // which the engine has already run; serve straight from it.
    TtpInferenceBatch& batch = *staged_batch_;
    staged_batch_ = nullptr;
    require(queries.size() == staged_queries_.size(),
            "BatchTtpPredictor: staged decision does not match the plan");
    out.resize(queries.size());
    for (size_t i = 0; i < queries.size(); i++) {
      require(queries[i].step == staged_queries_[i].step &&
                  queries[i].size_bytes == staged_queries_[i].size_bytes,
              "BatchTtpPredictor: staged query order mismatch");
      distribution_into(batch, staged_slots_[i], queries[i].size_bytes,
                        out[i]);
    }
    staged_queries_.clear();
    staged_slots_.clear();
    return;
  }

  // Standalone path: fuse this decision's rows locally — one GEMM per
  // step-network instead of one matrix-vector pass per (step, rung).
  local_batch_.clear();
  enqueue_rows(queries, local_batch_, local_slots_);
  local_batch_.run();
  out.resize(queries.size());
  for (size_t i = 0; i < queries.size(); i++) {
    distribution_into(local_batch_, local_slots_[i], queries[i].size_bytes,
                      out[i]);
  }
}

void BatchTtpPredictor::on_chunk_complete(const abr::ChunkRecord& record) {
  history_.record(static_cast<double>(record.size_bytes) / 1e6,
                  record.transmission_time_s, model_->config().history);
}

void BatchTtpPredictor::reset_session() {
  history_.clear();
  staged_batch_ = nullptr;
  staged_queries_.clear();
  staged_slots_.clear();
}

void BatchTtpPredictor::stage(
    const abr::AbrObservation& obs,
    const std::span<const media::ChunkOptions> lookahead, const int horizon,
    TtpInferenceBatch& batch) {
  require(!lookahead.empty(), "BatchTtpPredictor::stage: empty lookahead");
  current_tcp_ = obs.tcp;
  // The shared enumeration keeps this list identical to the one
  // StochasticMpc::plan will issue for the same decision.
  abr::enumerate_tx_time_queries(lookahead, horizon, staged_queries_);
  enqueue_rows(staged_queries_, batch, staged_slots_);
  staged_batch_ = &batch;
}

}  // namespace puffer::fugu
