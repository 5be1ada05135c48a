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

/// CONSORT bucketing + telemetry folding for one finished stream — shared by
/// SessionTask (private paths) and ContentionGroupTask members so the two
/// drivers cannot drift. Draws the 1.1% loss-of-contact bernoulli from
/// `run_rng` at the same position for either kind of session.
void fold_stream_outcome(const sim::StreamOutcome& outcome, Rng& run_rng,
                         const TrialConfig& config, SchemeResult& result,
                         double& session_duration_s, bool& any_considered);

}  // namespace detail

/// One trial session as a resumable task (streams, CONSORT accounting,
/// telemetry logs), cut at its ABR decision points so the fleet engine can
/// interleave thousands of sessions on one virtual timeline. run_session
/// below drives a task straight to completion; it is the reference the
/// fleet is checked against, and both share this one implementation.
///
/// Non-owning throughout: the plan, algorithm, config and result
/// accumulator must all outlive the task (run_session completes within the
/// caller's scope; the fleet wrapper owns the plan alongside the task).
class SessionTask final : public sim::FleetTask {
 public:
  SessionTask(const SessionPlan& plan, abr::AbrAlgorithm& algo,
              const TrialConfig& config, SchemeResult& result);

  Step prepare() override;
  bool stage(fugu::TtpInferenceBatch& batch) override;
  void finish_chunk() override;
  [[nodiscard]] double elapsed_s() const override;
  void drain_fault_events(std::vector<FaultEvent>& out) override;

  /// Streams the fault plane cut short via the user model this session.
  [[nodiscard]] int64_t aborted_streams() const { return aborted_streams_; }
  /// The resilient TTP wrapper, when this session's scheme carries one
  /// (for faults.* metric harvesting); nullptr otherwise.
  [[nodiscard]] fugu::ResilientPredictor* resilient() const {
    return resilient_;
  }

 private:
  void finish_stream();

  const SessionPlan& plan_;
  abr::AbrAlgorithm& algo_;
  const TrialConfig& config_;
  SchemeResult& result_;

  // Set when the algorithm is an MpcAbr driven by a BatchTtpPredictor —
  // the combination whose decisions the fleet engine can coalesce. A
  // ResilientPredictor wrapper hides the batch predictor, so faulted Fugu
  // decisions run inline (bit-identical to staged by construction).
  fugu::BatchTtpPredictor* batch_predictor_ = nullptr;
  fugu::ResilientPredictor* resilient_ = nullptr;
  int mpc_horizon_ = 0;

  // Session-abort fault stream: seeded from (fault seed, family, run seed)
  // at session start and drawn once per decision — a pure per-session
  // schedule, invariant to fleet interleaving.
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
  bool started_ = false;
  bool finished_ = false;
};

/// Drive one session to completion on the calling thread, with no engine —
/// the reference every engine run is checked against.
void run_session(const SessionPlan& plan, abr::AbrAlgorithm& algo,
                 const TrialConfig& config, SchemeResult& result);

}  // namespace puffer::exp

#endif  // PUFFER_EXP_SESSION_TASK_HH
