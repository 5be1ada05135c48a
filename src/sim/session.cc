#include "sim/session.hh"

#include <algorithm>
#include <cmath>

#include "media/ladder.hh"
#include "util/require.hh"

namespace puffer::sim {

void send_preamble(net::TcpSender& sender) {
  sender.transfer(kPreambleBytes);
}

StreamSession::StreamSession(net::TcpSender& sender, abr::AbrAlgorithm& abr,
                             media::VbrVideoSource& video,
                             const int64_t first_chunk,
                             const UserBehavior& user, Rng& rng,
                             const StreamRunConfig& config,
                             StreamObserver* observer)
    : sender_(sender),
      abr_(abr),
      video_(video),
      user_(user),
      rng_(rng),
      config_(config),
      observer_(observer),
      t0_(sender.now()),
      chunk_dur_(video.chunk_duration()),
      next_chunk_(first_chunk),
      lookahead_(static_cast<size_t>(config.lookahead_chunks)) {
  // A tiny fraction of clients hit a player/decoder defect and are excluded
  // from the analysis (Figure A1: "stalled from a slow video decoder").
  if (rng_.bernoulli(3e-4)) {
    outcome_.decoder_failure = true;
    done_ = true;
  }
}

StreamSession::PrepareStep StreamSession::prepare_chunk_async(double& wait_s) {
  if (done_) {
    return PrepareStep::kDone;
  }
  if (config_.max_stream_chunks > 0 &&
      outcome_.chunks_played >= config_.max_stream_chunks) {
    // Simulation budget reached; figures cover the played prefix.
    end_stream();
    return PrepareStep::kDone;
  }
  // Server-side send pacing: wait until the client buffer has room for
  // another chunk (Puffer sends whenever there is room, section 6.2).
  if (playing_ && buffer_s_ + chunk_dur_ > media::kMaxBufferS) {
    pending_wait_s_ = buffer_s_ + chunk_dur_ - media::kMaxBufferS;
    wait_s = pending_wait_s_;
    return PrepareStep::kWait;
  }
  build_observation();
  return PrepareStep::kDecision;
}

StreamSession::PrepareStep StreamSession::finish_wait() {
  const double wait = pending_wait_s_;
  pending_wait_s_ = 0.0;
  buffer_s_ -= wait;
  played_s_ += wait;
  if (played_s_ >= user_.watch_intent_s) {
    // Viewer finished while we were waiting.
    end_stream();
    return PrepareStep::kDone;
  }
  build_observation();
  return PrepareStep::kDecision;
}

void StreamSession::build_observation() {
  // Expose the pending ABR decision.
  obs_ = abr::AbrObservation{};
  obs_.chunk_index = next_chunk_;
  obs_.buffer_s = buffer_s_;
  obs_.prev_ssim_db = prev_ssim_db_;
  obs_.prev_rung = prev_rung_;
  obs_.tcp = sender_.info();
  for (int k = 0; k < config_.lookahead_chunks; k++) {
    lookahead_[static_cast<size_t>(k)] = video_.chunk_options(next_chunk_ + k);
  }
}

double StreamSession::begin_chunk() {
  require(!done_, "StreamSession::begin_chunk: stream is over");

  // ABR decision.
  const int rung = abr_.choose_rung(obs_, lookahead_);
  require(rung >= 0 && rung < media::kNumRungs, "run_stream: bad rung");
  pending_rung_ = rung;
  pending_version_ = lookahead_[0].version(rung);
  pending_tcp_at_send_ = sender_.info();
  if (observer_ != nullptr) {
    abr::ChunkRecord sent;
    sent.chunk_index = next_chunk_;
    sent.rung = rung;
    sent.size_bytes = pending_version_.size_bytes;
    sent.ssim_db = pending_version_.ssim_db;
    sent.tcp_at_send = pending_tcp_at_send_;
    observer_->on_video_sent(sender_.now(), sent, buffer_s_);
  }
  return static_cast<double>(pending_version_.size_bytes);
}

void StreamSession::complete_chunk(const net::TransferResult& transfer) {
  const int rung = pending_rung_;
  const media::ChunkVersion version = pending_version_;
  const net::TcpInfo tcp_at_send = pending_tcp_at_send_;
  const double tx = transfer.transmission_time();
  if (observer_ != nullptr) {
    observer_->on_video_acked(transfer.completion_s, next_chunk_);
  }

  // Playback during the transfer.
  if (playing_) {
    if (buffer_s_ >= tx) {
      buffer_s_ -= tx;
      played_s_ += tx;
    } else {
      // Buffer ran dry: played what was left, then stalled.
      played_s_ += buffer_s_;
      const double stall_duration = tx - buffer_s_;
      buffer_s_ = 0.0;
      if (observer_ != nullptr) {
        observer_->on_client_buffer(transfer.completion_s - stall_duration,
                                    "rebuffer", 0.0, stall_s_);
      }
      if (stall_duration > user_.stall_patience_s) {
        stall_s_ += user_.stall_patience_s;
        user_left_ = true;  // viewer gave up mid-stall
      } else {
        stall_s_ += stall_duration;
        // Continuous abandonment hazard while rebuffering.
        const double p_leave =
            1.0 - std::exp(-user_.stall_hazard_per_s * stall_duration);
        if (rng_.bernoulli(p_leave)) {
          user_left_ = true;
        }
      }
      if (user_left_) {
        end_stream();
        return;
      }
    }
  } else {
    // Startup phase: playback begins when the first chunk arrives and the
    // player has initialized.
    startup_delay_s_ =
        transfer.completion_s - t0_ + kPlayerInitDelayS;
    if (startup_delay_s_ >= user_.watch_intent_s) {
      // Zapped away before playback began (Figure A1's biggest bucket):
      // ends with default figures, exactly like the historical early return.
      outcome_.wall_time_s = sender_.now() - t0_;
      done_ = true;
      return;
    }
    playing_ = true;
    outcome_.began_playing = true;
    outcome_.figures.first_chunk_ssim_db = version.ssim_db;
    if (observer_ != nullptr) {
      observer_->on_client_buffer(transfer.completion_s, "startup", 0.0, 0.0);
    }
  }

  // Chunk arrives: buffer grows, telemetry recorded.
  buffer_s_ += chunk_dur_;
  if (observer_ != nullptr) {
    observer_->on_client_buffer(transfer.completion_s, "timer", buffer_s_,
                                stall_s_);
  }
  ssim_stats_.add(version.ssim_db);
  if (prev_ssim_db_ >= 0.0) {
    variation_stats_.add(std::abs(version.ssim_db - prev_ssim_db_));
  }
  total_bytes_ += static_cast<double>(version.size_bytes);
  total_tx_time_ += tx;

  abr::ChunkRecord record;
  record.chunk_index = next_chunk_;
  record.rung = rung;
  record.size_bytes = version.size_bytes;
  record.ssim_db = version.ssim_db;
  record.transmission_time_s = tx;
  record.tcp_at_send = tcp_at_send;
  abr_.on_chunk_complete(record);

  outcome_.transfer_log.push_back(
      {static_cast<double>(version.size_bytes) / 1e6, tx, tcp_at_send});
  outcome_.chunks_played++;
  prev_ssim_db_ = version.ssim_db;
  prev_rung_ = rung;
  next_chunk_++;

  // Quality-driven abandonment: viewers drift away from a stream that
  // looks bad (drives the Figure 10 tail separation).
  const double quality_deficit =
      std::max(0.0, user_.quality_reference_db - version.ssim_db);
  const double p_quality_leave =
      1.0 - std::exp(-user_.quality_hazard_per_s_db * quality_deficit *
                     chunk_dur_);
  if (rng_.bernoulli(p_quality_leave)) {
    user_left_ = true;
  }
  if (user_left_ || played_s_ >= user_.watch_intent_s) {
    end_stream();
  }
}

void StreamSession::abort_stream() {
  require(!done_, "StreamSession::abort_stream: stream is over");
  user_left_ = true;
  end_stream();
}

void StreamSession::end_stream() {
  outcome_.figures.watch_time_s = played_s_ + stall_s_;
  outcome_.figures.stall_time_s = stall_s_;
  outcome_.figures.startup_delay_s = startup_delay_s_;
  outcome_.figures.ssim_mean_db = ssim_stats_.mean();
  outcome_.figures.ssim_variation_db = variation_stats_.mean();
  if (outcome_.chunks_played > 0) {
    outcome_.figures.mean_bitrate_mbps =
        total_bytes_ * 8.0 / 1e6 /
        (static_cast<double>(outcome_.chunks_played) * chunk_dur_);
  }
  if (total_tx_time_ > 0.0) {
    outcome_.figures.mean_delivery_rate_mbps =
        total_bytes_ * 8.0 / 1e6 / total_tx_time_;
  }
  outcome_.wall_time_s = sender_.now() - t0_;
  done_ = true;
}

StreamOutcome StreamSession::take_outcome() {
  require(done_, "StreamSession::take_outcome: stream still in flight");
  return std::move(outcome_);
}

StreamOutcome run_stream(net::TcpSender& sender, abr::AbrAlgorithm& abr,
                         media::VbrVideoSource& video,
                         const int64_t first_chunk, const UserBehavior& user,
                         Rng& rng, const StreamRunConfig& config,
                         StreamObserver* observer) {
  StreamSession session{sender, abr,    video, first_chunk,
                        user,   rng,    config, observer};
  for (;;) {
    double wait_s = 0.0;
    StreamSession::PrepareStep step = session.prepare_chunk_async(wait_s);
    if (step == StreamSession::PrepareStep::kWait) {
      sender.idle_until(sender.now() + wait_s);
      step = session.finish_wait();
    }
    if (step == StreamSession::PrepareStep::kDone) {
      return session.take_outcome();
    }
    session.complete_chunk(sender.transfer(session.begin_chunk()));
  }
}

}  // namespace puffer::sim
