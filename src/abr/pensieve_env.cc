#include "abr/pensieve_env.hh"

#include <algorithm>
#include <cmath>

#include "media/ladder.hh"
#include "util/require.hh"

namespace puffer::abr {

PensieveEnv::PensieveEnv(const PensieveEnvConfig config, const uint64_t seed)
    : config_(config),
      rng_(Rng{seed}.split("pensieve-env")) {
  require(config.chunks_per_episode >= 1,
          "PensieveEnv: chunks_per_episode must be >= 1");
}

double PensieveEnv::download_time(const double start, const double bytes) const {
  const auto& trace = path_->trace;
  const double segment = trace.segment_duration();
  double remaining = bytes;
  double t = start;
  // Walk the piecewise-constant trace exactly.
  for (int guard = 0; guard < 1000000; guard++) {
    const double rate = std::max(trace.capacity_at(t), 1.0);
    const double segment_end =
        (std::floor(t / segment) + 1.0) * segment;
    const double dt = segment_end - t;
    const double can_move = rate * dt;
    if (can_move >= remaining) {
      return (t + remaining / rate) - start + path_->min_rtt_s;
    }
    remaining -= can_move;
    t = segment_end;
  }
  return t - start + path_->min_rtt_s;  // unreachable in practice
}

std::vector<float> PensieveEnv::reset() {
  const double horizon_s =
      config_.chunks_per_episode * media::kChunkDurationS * 4.0;
  Rng path_rng = rng_.split(rng_.engine()());
  path_ = config_.trace.sample_path(path_rng, horizon_s);
  const auto& channels = media::default_channels();
  const auto channel = static_cast<size_t>(
      rng_.uniform_int(0, static_cast<int64_t>(channels.size()) - 1));
  video_.emplace(channels[channel], rng_.engine()());

  history_.reset();
  now_s_ = 0.0;
  buffer_s_ = 0.0;
  chunk_index_ = 0;
  last_bitrate_mbps_ = 0.0;
  has_last_bitrate_ = false;

  return pensieve_state(history_, buffer_s_,
                        video_->chunk_options(chunk_index_));
}

PensieveEnv::StepResult PensieveEnv::step(const int rung) {
  require(path_.has_value(), "PensieveEnv::step before reset");
  require(rung >= 0 && rung < media::kNumRungs, "PensieveEnv: bad rung");

  const media::ChunkOptions& menu = video_->chunk_options(chunk_index_);
  const media::ChunkVersion& version = menu.version(rung);

  const double dt =
      download_time(now_s_, static_cast<double>(version.size_bytes));

  // Buffer dynamics: drains while downloading; stall if it empties.
  const double stall = std::max(dt - buffer_s_, 0.0);
  buffer_s_ = std::max(buffer_s_ - dt, 0.0) + media::kChunkDurationS;
  now_s_ += dt;
  // Full buffer: the client pauses fetching until there is room.
  if (buffer_s_ > media::kMaxBufferS) {
    const double wait = buffer_s_ - media::kMaxBufferS;
    now_s_ += wait;
    buffer_s_ = media::kMaxBufferS;
  }

  // Bitrate-based QoE_lin reward (Pensieve could not be made SSIM-aware).
  const double bitrate_mbps =
      media::default_ladder()[static_cast<size_t>(rung)].nominal_bitrate_mbps;
  double reward =
      bitrate_mbps - PensieveEnvConfig::kRebufferPenaltyPerS * stall;
  if (has_last_bitrate_) {
    reward -= PensieveEnvConfig::kSmoothPenalty *
              std::abs(bitrate_mbps - last_bitrate_mbps_);
  }
  last_bitrate_mbps_ = bitrate_mbps;
  has_last_bitrate_ = true;

  const double throughput_mbps =
      static_cast<double>(version.size_bytes) * 8.0 / 1e6 / std::max(dt, 1e-3);
  history_.record(throughput_mbps, dt, rung);

  chunk_index_++;
  StepResult result;
  result.reward = reward;
  result.stall_s = stall;
  result.download_time_s = dt;
  result.done = chunk_index_ >= config_.chunks_per_episode;
  result.next_state = pensieve_state(history_, buffer_s_,
                                     video_->chunk_options(chunk_index_));
  return result;
}

}  // namespace puffer::abr
