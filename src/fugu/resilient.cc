#include "fugu/resilient.hh"

#include <utility>

#include "fugu/batch_ttp.hh"
#include "fugu/fugu.hh"
#include "util/require.hh"

namespace puffer::fugu {

ResilientPredictor::ResilientPredictor(
    std::unique_ptr<abr::TxTimePredictor> primary,
    const double failure_probability, const uint64_t fault_seed)
    : primary_(std::move(primary)),
      failure_probability_(failure_probability),
      fault_seed_(fault_seed) {
  require(primary_ != nullptr, "ResilientPredictor: null primary predictor");
  require(failure_probability_ >= 0.0 && failure_probability_ <= 1.0,
          "ResilientPredictor: failure probability must be in [0, 1]");
}

void ResilientPredictor::begin_session(const uint64_t run_seed) {
  session_stream_ = sim::FaultPlan{true, fault_seed_, {}}
                        .rng(sim::kFaultTtpInference)
                        .split(run_seed);
}

void ResilientPredictor::begin_decision(const abr::AbrObservation& obs) {
  // Draw this decision's fault before consulting either predictor. Both
  // predictors see every begin_decision/on_chunk_complete so the fallback's
  // throughput history is warm the instant it is needed.
  stats_.decisions += 1;
  current_failed_ =
      session_stream_.has_value() && failure_probability_ > 0.0 &&
      session_stream_->bernoulli(failure_probability_);
  if (current_failed_) {
    stats_.failures += 1;
    consecutive_failures_ += 1;
    consecutive_successes_ = 0;
    if (!stats_.degraded &&
        consecutive_failures_ >= kEngageAfterFailures) {
      stats_.degraded = true;
      stats_.engagements += 1;
    }
  } else {
    consecutive_successes_ += 1;
    consecutive_failures_ = 0;
    if (stats_.degraded &&
        consecutive_successes_ >= kRepromoteAfterSuccesses) {
      stats_.degraded = false;
    }
  }
  primary_->begin_decision(obs);
  fallback_.begin_decision(obs);
  if (&active() == &fallback_) {
    stats_.fallback_decisions += 1;
  }
}

abr::TxTimePredictor& ResilientPredictor::active() {
  return (current_failed_ || stats_.degraded)
             ? static_cast<abr::TxTimePredictor&>(fallback_)
             : *primary_;
}

abr::TxTimeDistribution ResilientPredictor::predict(const int step,
                                                    const int64_t size_bytes) {
  return active().predict(step, size_bytes);
}

void ResilientPredictor::predict_batch(
    const std::span<const abr::TxTimeQuery> queries,
    std::vector<abr::TxTimeDistribution>& out) {
  active().predict_batch(queries, out);
}

void ResilientPredictor::on_chunk_complete(const abr::ChunkRecord& record) {
  primary_->on_chunk_complete(record);
  fallback_.on_chunk_complete(record);
}

void ResilientPredictor::reset_session() {
  primary_->reset_session();
  fallback_.reset_session();
  session_stream_.reset();
  current_failed_ = false;
  consecutive_failures_ = 0;
  consecutive_successes_ = 0;
  stats_ = SessionFaultStats{};
}

std::unique_ptr<abr::MpcAbr> make_resilient_fugu(
    std::shared_ptr<const TtpModel> model, const sim::FaultPlan& faults,
    std::string name, const bool point_estimate) {
  const double p = faults.probability(sim::kFaultTtpInference);
  if (!faults.enabled || p <= 0.0) {
    return make_fugu(std::move(model), std::move(name), point_estimate);
  }
  auto primary =
      std::make_unique<BatchTtpPredictor>(std::move(model), point_estimate);
  auto wrapped = std::make_unique<ResilientPredictor>(std::move(primary), p,
                                                      faults.seed);
  return std::make_unique<abr::MpcAbr>(std::move(name), std::move(wrapped));
}

}  // namespace puffer::fugu
