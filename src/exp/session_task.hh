#ifndef PUFFER_EXP_SESSION_TASK_HH
#define PUFFER_EXP_SESSION_TASK_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "exp/trial.hh"
#include "fugu/batch_ttp.hh"
#include "fugu/resilient.hh"
#include "net/tcp_sender.hh"
#include "sim/fleet.hh"
#include "sim/session.hh"

namespace puffer::exp {

/// Everything that defines a session independent of the assigned scheme —
/// sampled up front so that paired (emulation-style) runs can replay the
/// exact same conditions for every scheme, and so the fleet engine can
/// create a session's task at its arrival time.
struct SessionPlan {
  sim::SessionBehavior session;
  std::vector<sim::UserBehavior> stream_behaviors;
  std::vector<int> channels;
  std::vector<uint64_t> video_seeds;
  std::optional<net::NetworkPath> path;
  uint64_t run_seed = 0;
};

SessionPlan make_session_plan(Rng& rng, const sim::UserModel& users,
                              const net::PathGenerator& paths);

namespace detail {

/// CONSORT bucketing + telemetry folding for one finished stream. Draws
/// the 1.1% loss-of-contact bernoulli from `run_rng`. SessionTask is its
/// one caller in the simulator, so a session is counted the same way on a
/// private path and behind a shared bottleneck.
void fold_stream_outcome(const sim::StreamOutcome& outcome, Rng& run_rng,
                         const TrialConfig& config, SchemeResult& result,
                         double& session_duration_s, bool& any_considered);

}  // namespace detail

/// One trial session as a resumable task — the one implementation of the
/// session life cycle: CONSORT counting, the bounce check, the run RNG,
/// reset_session, the fault hooks, the preamble, the streams and the
/// per-stream fold. It is cut at its ABR decision points so the fleet
/// engine can interleave thousands of sessions on one virtual timeline.
/// Driving a task straight to completion (prepare() then finish_chunk()
/// until no decision is left) is the serial reference the tests check the
/// fleet against.
///
/// The connection decides who performs the network actions. On a private
/// path the session owns a TcpSender over its plan's path and runs every
/// transfer and idle itself, so prepare() only ever stops at decisions.
/// Behind a shared bottleneck the sender is externally driven: advance()
/// also stops at every transfer in flight (kTransfer) and every buffer-full
/// wait (kWait), and a ContentionGroupTask steps the connection and calls
/// advance() again once the transfer completed or the wait elapsed.
///
/// Non-owning throughout: the plan, algorithm, config and result
/// accumulator must all outlive the task (the fleet wraps the task with
/// what it points at).
class SessionTask : public sim::FleetTask {
 public:
  enum class Connection {
    kPrivate,     ///< own TcpSender (BBR) over the plan's path
    kSharedBbr,   ///< externally driven TcpSender, BBR
    kSharedCubic, ///< externally driven TcpSender, CUBIC
  };

  SessionTask(const SessionPlan& plan, abr::AbrAlgorithm& algo,
              const TrialConfig& config, SchemeResult& result,
              Connection connection = Connection::kPrivate);
  SessionTask(const SessionTask&) = delete;
  SessionTask& operator=(const SessionTask&) = delete;

  /// Private connections only (a shared session's network actions belong
  /// to its group).
  Step prepare() override;
  bool stage(fugu::TtpInferenceBatch& batch) override;
  /// Decide the pending chunk and start its transfer; on a private path
  /// (or when the transfer completes at once) also account for it.
  void finish_chunk() override;
  /// Virtual time on the session's own connection since it opened.
  [[nodiscard]] double elapsed_s() const override;
  void drain_fault_events(std::vector<FaultEvent>& out) override;

  /// What the session needs before it can make progress.
  enum class Need {
    kDecision,  ///< parked at an ABR decision: stage()/finish_chunk()
    kTransfer,  ///< sender() has a transfer in flight
    kWait,      ///< idle the connection for wait_s, then advance() again
    kDone,      ///< session over
  };
  /// Run the life cycle up to its next need. A kTransfer resumes once the
  /// sender's transfer completed, a kWait once the wait elapsed.
  Need advance(double& wait_s);

  /// The session's connection; nullptr until the session opened it (and
  /// for sessions that bounced before playing).
  [[nodiscard]] net::TcpSender* sender() {
    return sender_.has_value() ? &*sender_ : nullptr;
  }
  [[nodiscard]] const net::TcpSender* sender() const {
    return sender_.has_value() ? &*sender_ : nullptr;
  }
  [[nodiscard]] const SessionPlan& plan() const { return plan_; }

  /// Streams the fault plane cut short via the user model this session.
  [[nodiscard]] int64_t aborted_streams() const { return aborted_streams_; }
  /// The resilient TTP wrapper, when this session's scheme carries one
  /// (for faults.* metric harvesting); nullptr otherwise.
  [[nodiscard]] fugu::ResilientPredictor* resilient() const {
    return resilient_;
  }

 private:
  enum class Phase {
    kStart,      ///< before the session's arrival
    kPreamble,   ///< preamble transfer started
    kChunk,      ///< chunk transfer started
    kWait,       ///< waiting for client buffer room
    kDecision,   ///< parked at an ABR decision
    kStreaming,  ///< between decisions
    kDone,
  };

  /// CONSORT count, bounce check, per-session resets, fault streams and
  /// the connection. False when the session bounced.
  bool start_session();
  /// Start a transfer; true once it completed (always on a private path).
  bool send(double bytes);
  /// Playback accounting of the finished chunk transfer, then the fault
  /// hooks that follow every chunk.
  void complete_transfer();
  Need next_decision(double& wait_s);
  void finish_stream();

  const SessionPlan& plan_;
  abr::AbrAlgorithm& algo_;
  const TrialConfig& config_;
  SchemeResult& result_;
  Connection connection_;

  // Set when the algorithm is an MpcAbr driven by a BatchTtpPredictor —
  // the combination whose decisions the fleet engine can coalesce. A
  // ResilientPredictor wrapper hides the batch predictor, so faulted Fugu
  // decisions run inline (bit-identical to staged by construction).
  fugu::BatchTtpPredictor* batch_predictor_ = nullptr;
  fugu::ResilientPredictor* resilient_ = nullptr;
  int mpc_horizon_ = 0;

  // Session-abort fault stream: seeded from (fault seed, family, run seed)
  // at session start and drawn once per decision — a pure per-session
  // schedule, invariant to fleet interleaving and to the connection.
  std::optional<Rng> abort_rng_;
  double abort_probability_ = 0.0;
  int64_t aborted_streams_ = 0;
  int64_t seen_ttp_failures_ = 0;
  std::vector<FaultEvent> pending_fault_events_;

  Rng run_rng_{0};
  std::optional<net::TcpSender> sender_;
  std::optional<media::VbrVideoSource> video_;
  std::optional<sim::StreamSession> stream_;
  int stream_index_ = 0;
  double session_duration_s_ = 0.0;
  bool any_considered_ = false;
  Phase phase_ = Phase::kStart;
};

}  // namespace puffer::exp

#endif  // PUFFER_EXP_SESSION_TASK_HH
