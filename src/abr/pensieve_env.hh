#ifndef PUFFER_ABR_PENSIEVE_ENV_HH
#define PUFFER_ABR_PENSIEVE_ENV_HH

#include "abr/pensieve.hh"
#include "media/vbr_source.hh"
#include "net/trace_models.hh"

namespace puffer::abr {

/// Chunk-level training environment for Pensieve, equivalent to the fast
/// simulator the Pensieve authors train in: a chunk's download time is the
/// trace-integral time to move its bytes plus one RTT of latency; the buffer
/// drains in real time, stalls accrue when it empties, and the reward is the
/// bitrate-based QoE_lin the paper says Pensieve optimizes
/// (+bitrate, -stalls, -Δbitrate; Figure 5). The agent trains against the
/// deployed player: media::kChunkDurationS chunks, media::kMaxBufferS buffer.
struct PensieveEnvConfig {
  /// QoE_lin weights: a stalled second costs the top bitrate in Mbit/s, a
  /// switch costs its bitrate change.
  static constexpr double kRebufferPenaltyPerS = 5.5;
  static constexpr double kSmoothPenalty = 1.0;

  int chunks_per_episode = 100;
  /// Trace family the agent trains on (FCC-style, section 3.3), widened
  /// toward the 12 Mbit/s shell cap so the policy learns to use the high
  /// rungs when throughput allows (the real Pensieve's FCC/Norway mix also
  /// reached the shell cap).
  net::FccTraceModel trace{/*median_rate_mbps=*/3.0,
                           /*log10_rate_sigma=*/0.45};
};

class PensieveEnv {
 public:
  PensieveEnv(PensieveEnvConfig config, uint64_t seed);

  /// Begin an episode on a freshly-sampled FCC-style trace and video stream.
  /// Returns the initial state.
  std::vector<float> reset();

  struct StepResult {
    std::vector<float> next_state;
    double reward = 0.0;
    bool done = false;
    double stall_s = 0.0;        ///< exposed for diagnostics
    double download_time_s = 0.0;
  };

  /// Send the current chunk at `rung`; advance the episode.
  StepResult step(int rung);

  [[nodiscard]] const PensieveEnvConfig& config() const { return config_; }

 private:
  /// Time to move `bytes` through the trace starting at `start`, plus RTT.
  [[nodiscard]] double download_time(double start, double bytes) const;

  PensieveEnvConfig config_;
  Rng rng_;

  // Episode state.
  std::optional<net::NetworkPath> path_;
  std::optional<media::VbrVideoSource> video_;
  PensieveHistory history_;
  double now_s_ = 0.0;
  double buffer_s_ = 0.0;
  int chunk_index_ = 0;
  double last_bitrate_mbps_ = 0.0;
  bool has_last_bitrate_ = false;
};

}  // namespace puffer::abr

#endif  // PUFFER_ABR_PENSIEVE_ENV_HH
