#include "exp/session_task.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "abr/mpc_abr.hh"
#include "media/channel.hh"
#include "net/bbr.hh"
#include "net/cubic.hh"
#include "util/require.hh"

namespace puffer::exp {

SessionPlan make_session_plan(Rng& rng, const sim::UserModel& users,
                              const net::PathGenerator& paths) {
  SessionPlan plan;
  plan.session = users.sample_session(rng);
  double total_intent_s = 0.0;
  for (int k = 0; k < plan.session.num_streams; k++) {
    plan.stream_behaviors.push_back(users.sample_stream_behavior(rng));
    total_intent_s += plan.stream_behaviors.back().watch_intent_s;
    plan.channels.push_back(static_cast<int>(
        rng.uniform_int(0, media::kNumChannels - 1)));
    plan.video_seeds.push_back(rng.engine()());
  }
  const double trace_duration_s =
      std::min(1.25 * total_intent_s + 900.0, 18.0 * 3600.0);

  Rng path_rng = rng.split("path");
  plan.path = paths.sample_path(path_rng, trace_duration_s);
  plan.run_seed = rng.engine()();
  return plan;
}

SessionTask::SessionTask(const SessionPlan& plan, abr::AbrAlgorithm& algo,
                         const TrialConfig& config, SchemeResult& result,
                         const Connection connection)
    : plan_(plan),
      algo_(algo),
      config_(config),
      result_(result),
      connection_(connection) {
  if (auto* mpc = dynamic_cast<abr::MpcAbr*>(&algo_)) {
    if (auto* batched =
            dynamic_cast<fugu::BatchTtpPredictor*>(&mpc->predictor())) {
      batch_predictor_ = batched;
      mpc_horizon_ = mpc->controller().config().horizon;
    }
    resilient_ = dynamic_cast<fugu::ResilientPredictor*>(&mpc->predictor());
  }
}

SessionTask::Step SessionTask::prepare() {
  require(connection_ == Connection::kPrivate,
          "SessionTask::prepare: a shared connection is driven by its group");
  double wait_s = 0.0;
  return advance(wait_s) == Need::kDecision ? Step::kDecision : Step::kDone;
}

SessionTask::Need SessionTask::advance(double& wait_s) {
  switch (phase_) {
    case Phase::kStart:
      if (!start_session()) {
        return Need::kDone;
      }
      phase_ = Phase::kPreamble;
      if (!send(sim::kPreambleBytes)) {
        return Need::kTransfer;
      }
      break;
    case Phase::kPreamble:
    case Phase::kChunk:
      if (sender_->transfer_in_flight()) {
        return Need::kTransfer;
      }
      if (phase_ == Phase::kChunk) {
        complete_transfer();
      }
      break;
    case Phase::kWait:
      if (stream_->finish_wait() ==
          sim::StreamSession::PrepareStep::kDecision) {
        phase_ = Phase::kDecision;
        return Need::kDecision;
      }
      finish_stream();
      break;
    case Phase::kStreaming:
      break;
    case Phase::kDecision:
      return Need::kDecision;
    case Phase::kDone:
      return Need::kDone;
  }
  return next_decision(wait_s);
}

bool SessionTask::start_session() {
  result_.consort.sessions++;
  if (plan_.session.incompatible_or_bounce) {
    // Page loaded but video never played (incompatible browser / bounce).
    result_.consort.streams++;
    result_.consort.never_began++;
    phase_ = Phase::kDone;
    return false;
  }
  run_rng_ = Rng{plan_.run_seed};
  algo_.reset_session();
  if (resilient_ != nullptr) {
    resilient_->begin_session(plan_.run_seed);
    seen_ttp_failures_ = 0;
  }
  abort_probability_ = config_.faults.probability(sim::kFaultSessionAbort);
  if (abort_probability_ > 0.0) {
    abort_rng_ =
        config_.faults.rng(sim::kFaultSessionAbort).split(plan_.run_seed);
  }
  switch (connection_) {
    case Connection::kPrivate:
      sender_.emplace(*plan_.path, std::make_unique<net::BbrModel>(),
                      net::TcpSender::default_queue_capacity(*plan_.path));
      break;
    case Connection::kSharedBbr:
      sender_.emplace(plan_.path->min_rtt_s, std::make_unique<net::BbrModel>());
      break;
    case Connection::kSharedCubic:
      sender_.emplace(plan_.path->min_rtt_s,
                      std::make_unique<net::CubicModel>());
      break;
  }
  return true;
}

bool SessionTask::send(const double bytes) {
  if (connection_ == Connection::kPrivate) {
    sender_->transfer(bytes);
    return true;
  }
  sender_->start_transfer(bytes);
  return !sender_->transfer_in_flight();
}

SessionTask::Need SessionTask::next_decision(double& wait_s) {
  using PrepareStep = sim::StreamSession::PrepareStep;
  phase_ = Phase::kStreaming;
  for (;;) {
    if (stream_index_ >= plan_.session.num_streams) {
      if (any_considered_) {
        result_.session_durations_s.push_back(session_duration_s_);
      }
      phase_ = Phase::kDone;
      return Need::kDone;
    }
    if (!stream_) {
      video_.emplace(
          media::default_channels()[static_cast<size_t>(
              plan_.channels[static_cast<size_t>(stream_index_)])],
          plan_.video_seeds[static_cast<size_t>(stream_index_)]);
      stream_.emplace(*sender_, algo_, *video_, /*first_chunk=*/0,
                      plan_.stream_behaviors[static_cast<size_t>(stream_index_)],
                      run_rng_, config_.stream, nullptr);
    }
    PrepareStep step = stream_->prepare_chunk_async(wait_s);
    if (step == PrepareStep::kWait) {
      if (connection_ != Connection::kPrivate) {
        phase_ = Phase::kWait;
        return Need::kWait;
      }
      sender_->idle_until(sender_->now() + wait_s);
      step = stream_->finish_wait();
    }
    if (step == PrepareStep::kDecision) {
      phase_ = Phase::kDecision;
      return Need::kDecision;
    }
    finish_stream();
  }
}

bool SessionTask::stage(fugu::TtpInferenceBatch& batch) {
  if (batch_predictor_ == nullptr) {
    return false;
  }
  require(phase_ == Phase::kDecision, "SessionTask: no decision pending");
  batch_predictor_->stage(stream_->observation(), stream_->lookahead(),
                          mpc_horizon_, batch);
  return true;
}

void SessionTask::finish_chunk() {
  require(phase_ == Phase::kDecision, "SessionTask: no decision pending");
  phase_ = Phase::kChunk;
  if (send(stream_->begin_chunk())) {
    complete_transfer();
  }
}

void SessionTask::complete_transfer() {
  stream_->complete_chunk(sender_->take_completion());
  phase_ = Phase::kStreaming;
  if (resilient_ != nullptr) {
    const int64_t failures = resilient_->session_stats().failures;
    for (; seen_ttp_failures_ < failures; seen_ttp_failures_++) {
      pending_fault_events_.push_back(
          FaultEvent{elapsed_s(), sim::kFaultTtpInference});
    }
  }
  if (abort_rng_.has_value() && !stream_->done() &&
      abort_rng_->bernoulli(abort_probability_)) {
    stream_->abort_stream();
    aborted_streams_ += 1;
    pending_fault_events_.push_back(
        FaultEvent{elapsed_s(), sim::kFaultSessionAbort});
  }
}

double SessionTask::elapsed_s() const {
  return sender_.has_value() ? sender_->now() : 0.0;
}

void SessionTask::drain_fault_events(std::vector<FaultEvent>& out) {
  out.insert(out.end(), pending_fault_events_.begin(),
             pending_fault_events_.end());
  pending_fault_events_.clear();
}

void SessionTask::finish_stream() {
  const sim::StreamOutcome outcome = stream_->take_outcome();
  detail::fold_stream_outcome(outcome, run_rng_, config_, result_,
                              session_duration_s_, any_considered_);
  stream_.reset();
  video_.reset();
  stream_index_++;
}

namespace detail {

void fold_stream_outcome(const sim::StreamOutcome& outcome, Rng& run_rng,
                         const TrialConfig& config, SchemeResult& result,
                         double& session_duration_s, bool& any_considered) {
  result.consort.streams++;
  session_duration_s += outcome.wall_time_s;

  if (outcome.decoder_failure) {
    result.consort.decoder_failure++;
  } else if (!outcome.began_playing) {
    result.consort.never_began++;
  } else if (outcome.figures.watch_time_s < kMinWatchTimeS) {
    result.consort.under_min_watch++;
  } else {
    result.consort.considered++;
    if (run_rng.bernoulli(0.011)) {
      result.consort.truncated++;  // loss of contact; still considered
    }
    result.considered.push_back(outcome.figures);
    any_considered = true;
  }

  if (config.collect_logs && outcome.transfer_log.size() >= 2) {
    fugu::StreamLog log;
    log.day = config.day;
    log.chunks.reserve(outcome.transfer_log.size());
    for (const auto& entry : outcome.transfer_log) {
      log.chunks.push_back({entry.size_mb, entry.tx_time_s, entry.tcp_at_send});
    }
    result.logs.push_back(std::move(log));
  }
}

}  // namespace detail

}  // namespace puffer::exp
