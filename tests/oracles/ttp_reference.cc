#include "oracles/ttp_reference.hh"

#include <utility>

#include "util/require.hh"

namespace puffer::oracle {

abr::TxTimeDistribution predict_tx_time(const fugu::TtpModel& model,
                                        const int step,
                                        const fugu::TtpHistory& history,
                                        const net::TcpInfo& tcp,
                                        const int64_t proposed_size_bytes) {
  std::vector<float> features;
  fugu::ttp_featurize_into(model.config(), history, tcp, proposed_size_bytes,
                           features);
  nn::ForwardScratch scratch;
  abr::TxTimeDistribution dist;
  fugu::ttp_distribution_into(model.config(),
                              model.predict_bins(step, features, scratch),
                              proposed_size_bytes, dist);
  return dist;
}

ScalarTtpPredictor::ScalarTtpPredictor(
    std::shared_ptr<const fugu::TtpModel> model, const bool point_estimate)
    : model_(std::move(model)), point_estimate_(point_estimate) {
  require(model_ != nullptr, "ScalarTtpPredictor: model required");
}

void ScalarTtpPredictor::begin_decision(const abr::AbrObservation& obs) {
  current_tcp_ = obs.tcp;
}

abr::TxTimeDistribution ScalarTtpPredictor::predict(const int step,
                                                    const int64_t size_bytes) {
  fugu::ttp_featurize_into(model_->config(), history_, current_tcp_,
                           size_bytes, features_);
  abr::TxTimeDistribution dist;
  fugu::ttp_distribution_into(model_->config(),
                              model_->predict_bins(step, features_, forward_),
                              size_bytes, dist);
  if (point_estimate_) {
    fugu::collapse_to_point_estimate(dist);
  }
  return dist;
}

void ScalarTtpPredictor::on_chunk_complete(const abr::ChunkRecord& record) {
  history_.record(static_cast<double>(record.size_bytes) / 1e6,
                  record.transmission_time_s, model_->config().history);
}

void ScalarTtpPredictor::reset_session() {
  history_.clear();
}

}  // namespace puffer::oracle
