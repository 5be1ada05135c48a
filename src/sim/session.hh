#ifndef PUFFER_SIM_SESSION_HH
#define PUFFER_SIM_SESSION_HH

#include <cstdint>
#include <vector>

#include "abr/abr.hh"
#include "media/vbr_source.hh"
#include "net/tcp_sender.hh"
#include "sim/user_model.hh"
#include "stats/summary.hh"
#include "util/running_stats.hh"

namespace puffer::sim {

/// One chunk transfer as logged for in-situ TTP training (converted to
/// fugu::ChunkLog by the experiment layer).
struct TransferLogEntry {
  double size_mb = 0.0;
  double tx_time_s = 0.0;
  net::TcpInfo tcp_at_send;
};

/// Client-side player initialization (MediaSource setup, first-frame decode)
/// added to the startup delay; calibrates the absolute startup scale to the
/// ~0.5 s the paper reports (Figure 9). Public so the trial-cache key and the
/// campaign fingerprint can name it.
inline constexpr double kPlayerInitDelayS = 0.40;

/// Configuration of the streaming loop, matching Puffer's deployment: chunks
/// pushed server-side as soon as the client buffer (media::kMaxBufferS) has
/// room, MPC lookahead of 5 chunks.
struct StreamRunConfig {
  int lookahead_chunks = 5;
  /// Simulation budget: end the stream after this many played chunks, as if
  /// the viewer's remaining watch intent lay beyond the simulated horizon.
  /// 0 (default) = unlimited. The watch-time distribution is heavy-tailed
  /// (Pareto intents up to 16 h), so campaign-scale workloads cap this to
  /// bound the cost of a single monster stream without touching the user
  /// model; figures reflect the watched prefix exactly.
  int max_stream_chunks = 0;
};

/// Everything measured about one stream.
struct StreamOutcome {
  bool began_playing = false;
  bool decoder_failure = false;   ///< client-side defect (Figure A1 bucket)
  stats::StreamFigures figures;
  std::vector<TransferLogEntry> transfer_log;
  double wall_time_s = 0.0;       ///< stream start to stream end
  int chunks_played = 0;
};

/// Observer of the measurement events a stream produces — the same event
/// families Puffer's open data release records (Appendix B): a `video_sent`
/// datapoint when the server sends a chunk, a `video_acked` datapoint when
/// the client acknowledges it, and `client_buffer` datapoints on playback
/// events. Used by exp::OpenDataWriter to export the public-archive CSVs.
class StreamObserver {
 public:
  virtual ~StreamObserver() = default;
  /// Chunk leaves the server. `record.tcp_at_send` holds the tcp_info
  /// snapshot; `buffer_s` is the client buffer at the send decision.
  virtual void on_video_sent(double time_s, const abr::ChunkRecord& record,
                             double buffer_s) = 0;
  /// Chunk fully received by the client.
  virtual void on_video_acked(double time_s, int64_t chunk_index) = 0;
  /// Playback event: "startup", "play", "rebuffer", or the per-chunk
  /// "timer" report (the real client reports every quarter second; the
  /// simulator reports at chunk granularity).
  virtual void on_client_buffer(double time_s, const char* event,
                                double buffer_s, double cum_rebuffer_s) = 0;
};

/// One stream as a resumable state machine: the streaming loop cut at its
/// ABR decision points and at every network action, so a caller can
/// interleave thousands of streams on one virtual timeline (the fleet
/// engine), fuse the inference of many concurrently-deciding streams into
/// one batch, or advance a group's connections in lockstep over a shared
/// bottleneck. The session reads its sender's clock and tcp_info but never
/// sends or idles on it; its driver owns every transfer and idle:
///
///   prepare_chunk_async -> kDecision: decide via observation()/lookahead()
///                          then begin_chunk() -> transfer the returned
///                          bytes -> complete_chunk(result)
///                       -> kWait:     idle the connection for wait_s of
///                          virtual time, then call finish_wait() (which
///                          yields kDecision or kDone)
///                       -> kDone:     stream over, take_outcome()
///
/// run_stream() below is this protocol driven with TcpSender::transfer and
/// TcpSender::idle_until; exp::SessionTask drives it the same way on a
/// private path and hands the network actions to its contention group on a
/// shared one.
///
/// Holds references to everything passed in; they must outlive the session.
class StreamSession {
 public:
  StreamSession(net::TcpSender& sender, abr::AbrAlgorithm& abr,
                media::VbrVideoSource& video, int64_t first_chunk,
                const UserBehavior& user, Rng& rng,
                const StreamRunConfig& config = {},
                StreamObserver* observer = nullptr);

  /// Advance to the next ABR decision, a buffer-full wait, or the end of
  /// the stream.
  enum class PrepareStep { kDecision, kWait, kDone };
  PrepareStep prepare_chunk_async(double& wait_s);
  /// Completes the buffer/playback accounting of a kWait after the caller
  /// idled the connection for the requested wait.
  PrepareStep finish_wait();

  /// Choose the rung for the prepared decision and emit the video_sent
  /// record; returns the chunk size in bytes for the caller to transfer.
  double begin_chunk();
  /// Playback/QoE accounting for the transfer begin_chunk() started.
  void complete_chunk(const net::TransferResult& transfer);

  /// Observation / lookahead of the pending decision (valid after a
  /// kDecision, until begin_chunk()).
  [[nodiscard]] const abr::AbrObservation& observation() const { return obs_; }
  [[nodiscard]] std::span<const media::ChunkOptions> lookahead() const {
    return lookahead_;
  }

  [[nodiscard]] bool done() const { return done_; }

  /// Mid-stream abort via the user model: the viewer leaves immediately
  /// (same accounting as a quality/stall departure — the stream ends with
  /// user_left semantics and its outcome stays valid). Used by the fault
  /// plane's session-abort family; must not be called between
  /// begin_chunk() and its complete_chunk().
  void abort_stream();

  /// The finished stream's outcome (valid once prepare_chunk_async() or
  /// finish_wait() returned kDone); leaves the session in a moved-from
  /// state.
  StreamOutcome take_outcome();

 private:
  void build_observation();
  void end_stream();

  net::TcpSender& sender_;
  abr::AbrAlgorithm& abr_;
  media::VbrVideoSource& video_;
  const UserBehavior& user_;
  Rng& rng_;
  StreamRunConfig config_;
  StreamObserver* observer_;

  StreamOutcome outcome_;
  double t0_ = 0.0;
  double chunk_dur_ = 0.0;
  int64_t next_chunk_ = 0;
  double buffer_s_ = 0.0;
  bool playing_ = false;
  double played_s_ = 0.0;
  double stall_s_ = 0.0;
  double startup_delay_s_ = 0.0;
  double prev_ssim_db_ = -1.0;
  int prev_rung_ = -1;
  bool user_left_ = false;
  bool done_ = false;
  RunningStats ssim_stats_, variation_stats_;
  double total_bytes_ = 0.0;
  double total_tx_time_ = 0.0;

  abr::AbrObservation obs_;
  std::vector<media::ChunkOptions> lookahead_;

  // Pending-wait / pending-chunk state of the async protocol.
  double pending_wait_s_ = 0.0;
  int pending_rung_ = -1;
  media::ChunkVersion pending_version_{};
  net::TcpInfo pending_tcp_at_send_{};
};

/// Run one stream: the viewer watches `video` starting at `first_chunk`
/// until the watch intent is exhausted or QoE drives them away. The ABR
/// scheme and TCP connection persist across streams within a session (a
/// channel change does not reset them — Figure A1's session/stream split).
StreamOutcome run_stream(net::TcpSender& sender, abr::AbrAlgorithm& abr,
                         media::VbrVideoSource& video, int64_t first_chunk,
                         const UserBehavior& user, Rng& rng,
                         const StreamRunConfig& config = {},
                         StreamObserver* observer = nullptr);

/// Bytes of page, player JavaScript and manifest that travel over a fresh
/// connection before the first chunk.
inline constexpr double kPreambleBytes = 192.0 * 1024.0;

/// Warm the fresh connection the way the real player does: the
/// kPreambleBytes preamble travels over the same connection before the
/// first chunk, so tcp_info is already informative at the first ABR
/// decision — the effect behind Fugu's better cold start (Figure 9).
void send_preamble(net::TcpSender& sender);

}  // namespace puffer::sim

#endif  // PUFFER_SIM_SESSION_HH
