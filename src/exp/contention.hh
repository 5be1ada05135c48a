#ifndef PUFFER_EXP_CONTENTION_HH
#define PUFFER_EXP_CONTENTION_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/session_task.hh"
#include "exp/trial.hh"
#include "net/shared_link.hh"
#include "sim/fleet.hh"

namespace puffer::exp {

/// How a fleet trial groups sessions behind shared bottlenecks. The default
/// (group_size == 1) is the historical private-path fleet; group_size > 1
/// co-simulates that many consecutive sessions over one SharedLinkSimulator
/// per group. Of the fault plane's families, grouped trials accept only
/// link-outage; run_fleet_trial rejects ttp-inference and session-abort.
struct ContentionSpec {
  /// Sessions per shared bottleneck. 1 = private links (historical path).
  int group_size = 1;
  /// Which shared-bottleneck topology the spec models; purely descriptive
  /// (the knobs below carry the semantics), recorded for bench output.
  std::string topology = "edge";
  /// Fair-queue (max-min) scheduling at the bottleneck instead of one FIFO.
  bool fair_queue = false;
  /// Shared-link capacity = capacity_scale * group_size * (one sampled
  /// access-path trace). Below 1.0 the bottleneck is oversubscribed — the
  /// group genuinely contends instead of each member seeing a private path.
  double capacity_scale = 0.7;
  /// Shared buffer, in bandwidth-delay products at the scaled mean rate and
  /// the group's mean propagation RTT (floored at 64 kB).
  double queue_bdp = 2.0;
  /// Congestion control of the members: "bbr", "cubic", or "mixed"
  /// (odd-indexed sessions run CUBIC, even-indexed BBR).
  std::string cc = "bbr";
};

/// Topology presets used by the contention scenario families and the
/// tab_contention bench: "edge" (CDN edge, FIFO, mild oversubscription),
/// "tower" (cell tower, FIFO, heavier oversubscription, mixed CC), "wifi"
/// (home AP, per-flow fair queuing).
ContentionSpec make_contention_spec(const std::string& topology,
                                    int group_size);

/// One contention group as a single fleet task: `g` member sessions whose
/// TCP connections share one SharedLinkSimulator, advanced in lockstep on a
/// group-local virtual clock. Packaging the whole group as ONE FleetTask
/// keeps the engine's tasks mutually independent — the fleet == sequential
/// bitwise contract therefore survives any shard or thread count without the
/// engine knowing contention exists, and colocation of a group is automatic.
///
/// Each member runs the exact SessionTask life cycle (CONSORT accounting,
/// preamble, streams, telemetry) against an externally-driven TcpSender; the
/// group loop advances every live connection by the same dt and feeds the
/// shared link's per-flow step results back. Members park at ABR decisions;
/// prepare() surfaces the lowest-indexed parked member to the engine, so
/// batched TTP staging and finish_chunk() route to one member at a time and
/// the engine's prepare/stage/finish protocol is unchanged.
class ContentionGroupTask final : public sim::FleetTask {
 public:
  /// What the trial layer supplies per member session. `arrival_offset_s` is
  /// the member's fleet arrival relative to the group's (= first member's)
  /// arrival; offsets are ascending with member index.
  struct Member {
    std::shared_ptr<const SessionPlan> plan;
    std::unique_ptr<abr::AbrAlgorithm> algo;
    SchemeResult* result = nullptr;
    double arrival_offset_s = 0.0;
    bool use_cubic = false;
  };

  /// `shared_sample` is one access-path sample from the scenario generator;
  /// its trace is rescaled by capacity_scale * group_size to become the
  /// shared bottleneck. `config` and each member's result must outlive the
  /// task.
  ContentionGroupTask(std::vector<Member> members, const ContentionSpec& spec,
                      net::NetworkPath shared_sample,
                      const TrialConfig& config);

  Step prepare() override;
  bool stage(fugu::TtpInferenceBatch& batch) override;
  void finish_chunk() override;
  [[nodiscard]] double elapsed_s() const override { return world_s_; }
  [[nodiscard]] int64_t session_count() const override {
    return static_cast<int64_t>(states_.size());
  }
  void record_load(stats::LoadSeries& load, double arrival_s,
                   double end_s) const override;

  [[nodiscard]] size_t member_count() const { return states_.size(); }
  /// Reclaim member `i`'s algorithm instance (for per-scheme pooling);
  /// leaves the member unusable. Call only after the task completed.
  std::unique_ptr<abr::AbrAlgorithm> take_algorithm(size_t i);

  /// Jain fairness index over the members' delivered bytes on the shared
  /// link (members that never opened a connection are excluded). 1.0 when
  /// fewer than two members transferred anything.
  [[nodiscard]] double fairness_index() const;

  /// Bytes the shared link delivered across all members — exposed for the
  /// induced-stall/bench accounting.
  [[nodiscard]] double shared_delivered_bytes() const;
  /// Bytes all members offered to the shared link, and bytes its queue
  /// dropped — with delivered, the link's exact conservation triple,
  /// surfaced per group for the sim-plane contention metrics.
  [[nodiscard]] double shared_offered_bytes() const;
  [[nodiscard]] double shared_lost_bytes() const;

 private:
  enum class Phase {
    kUnarrived,   ///< before the member's arrival offset
    kPreamble,    ///< warming the fresh connection (send_preamble bytes)
    kChunk,       ///< one chunk transfer in flight
    kIdleWait,    ///< connection idle until wake_at_w (buffer full)
    kAtDecision,  ///< parked at an ABR decision; engine completes it
    kDone,        ///< member's session over
  };

  struct MemberState {
    Member m;
    Phase phase = Phase::kUnarrived;
    int flow = -1;
    Rng run_rng{0};
    std::optional<net::TcpSender> sender;
    std::optional<media::VbrVideoSource> video;
    std::optional<sim::StreamSession> stream;
    int stream_index = 0;
    double session_duration_s = 0.0;
    bool any_considered = false;
    double wake_at_w = 0.0;  ///< kIdleWait: world time to resume
    double end_w = 0.0;      ///< world time the member finished
    fugu::BatchTtpPredictor* batch_predictor = nullptr;
    int mpc_horizon = 0;
  };

  void arrive(MemberState& s);
  void advance_stream(MemberState& s);
  void finish_member_stream(MemberState& s);
  void on_transfer_done(MemberState& s);
  /// One lockstep world round: process due arrivals/wakes, else pick dt,
  /// step every live connection through the shared link, collect transfer
  /// completions. Returns true while any member is not kDone.
  bool advance_world();

  ContentionSpec spec_;
  const TrialConfig& config_;
  net::ThroughputTrace shared_trace_;
  std::optional<net::SharedLinkSimulator> link_;
  std::vector<MemberState> states_;

  double world_s_ = 0.0;  ///< group-local virtual clock
  size_t current_ = 0;    ///< member the pending kDecision belongs to

  // Step scratch.
  std::vector<double> offered_;
  std::vector<net::LinkStepResult> results_;
};

}  // namespace puffer::exp

#endif  // PUFFER_EXP_CONTENTION_HH
