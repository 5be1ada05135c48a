#include "abr/throughput_predictors.hh"

#include <algorithm>

#include "util/require.hh"

namespace puffer::abr {

namespace {

/// Cold-start default: with no samples yet, classical predictors assume a
/// modest 3 Mbit/s. (Unlike Fugu, they cannot consult tcp_info — that is
/// precisely the TTP feature Figure 9 credits for Fugu's better cold start.)
constexpr double kColdStartThroughputBps = 3e6 / 8.0;

constexpr double kMinTxTimeS = 1e-3;
constexpr double kMaxTxTimeS = 60.0;

/// Point-estimate transmission time of `size_bytes` at `throughput_bps`.
double tx_time_at(const int64_t size_bytes, const double throughput_bps) {
  return std::clamp(static_cast<double>(size_bytes) /
                        std::max(throughput_bps, 1.0),
                    kMinTxTimeS, kMaxTxTimeS);
}

}  // namespace

void HarmonicMeanPredictor::begin_decision(const AbrObservation& /*obs*/) {
  // Classical predictors ignore tcp_info by design.
}

double HarmonicMeanPredictor::predicted_throughput() const {
  if (throughput_samples_.empty()) {
    return kColdStartThroughputBps;
  }
  // Harmonic mean of the last kWindow samples (paper Figure 5: "HM").
  double denominator = 0.0;
  for (const double sample : throughput_samples_) {
    denominator += 1.0 / std::max(sample, 1.0);
  }
  return static_cast<double>(throughput_samples_.size()) / denominator;
}

double HarmonicMeanPredictor::planning_throughput() const {
  return predicted_throughput();
}

TxTimeDistribution HarmonicMeanPredictor::predict(const int /*step*/,
                                                  const int64_t size_bytes) {
  return {TxTimeOutcome{tx_time_at(size_bytes, planning_throughput()), 1.0}};
}

void HarmonicMeanPredictor::predict_batch(
    const std::span<const TxTimeQuery> queries,
    std::vector<TxTimeDistribution>& out) {
  out.resize(queries.size());
  if (queries.empty()) {
    return;
  }
  const double throughput = planning_throughput();
  for (size_t i = 0; i < queries.size(); i++) {
    out[i].assign(
        1, TxTimeOutcome{tx_time_at(queries[i].size_bytes, throughput), 1.0});
  }
}

void HarmonicMeanPredictor::on_chunk_complete(const ChunkRecord& record) {
  require(record.transmission_time_s > 0.0,
          "HarmonicMeanPredictor: non-positive transmission time");
  const double throughput =
      static_cast<double>(record.size_bytes) / record.transmission_time_s;
  throughput_samples_.push_back(throughput);
  while (throughput_samples_.size() > kWindow) {
    throughput_samples_.pop_front();
  }
}

void HarmonicMeanPredictor::reset_session() {
  throughput_samples_.clear();
}

double RobustThroughputPredictor::planning_throughput() const {
  double max_error = 0.0;
  for (const double err : relative_errors_) {
    max_error = std::max(max_error, err);
  }
  return predicted_throughput() / (1.0 + max_error);
}

void RobustThroughputPredictor::on_chunk_complete(const ChunkRecord& record) {
  // Relative error of the last *un-discounted* harmonic-mean estimate, as in
  // RobustMPC: err = |predicted - actual| / actual.
  const double actual =
      static_cast<double>(record.size_bytes) / record.transmission_time_s;
  if (!throughput_samples_.empty()) {
    const double predicted = predicted_throughput();
    relative_errors_.push_back(std::abs(predicted - actual) /
                               std::max(actual, 1.0));
    while (relative_errors_.size() > kWindow) {
      relative_errors_.pop_front();
    }
  }
  HarmonicMeanPredictor::on_chunk_complete(record);
}

void RobustThroughputPredictor::reset_session() {
  HarmonicMeanPredictor::reset_session();
  relative_errors_.clear();
}

}  // namespace puffer::abr
