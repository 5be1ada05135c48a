#ifndef PUFFER_EXP_CONTENTION_HH
#define PUFFER_EXP_CONTENTION_HH

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/session_task.hh"
#include "net/shared_link.hh"
#include "sim/fleet.hh"

namespace puffer::exp {

/// How a fleet trial groups sessions behind shared bottlenecks. The default
/// (group_size == 1) is the historical private-path fleet; group_size > 1
/// co-simulates that many consecutive sessions over one SharedLinkSimulator
/// per group. Every fault family applies: link-outage darkens a group's
/// shared link, and each member session carries SessionTask's ttp-inference
/// and session-abort hooks exactly as a private-path session does.
struct ContentionSpec {
  /// Sessions per shared bottleneck. 1 = private links (historical path).
  int group_size = 1;
  /// The shared-bottleneck topology: names the preset-table row
  /// (contention_preset()) holding the bottleneck's scheduling, capacity,
  /// buffer and members' congestion control.
  std::string topology = "edge";
};

/// Congestion control of a group's members.
enum class ContentionCc {
  kBbr,    ///< every member runs BBR
  kMixed,  ///< odd-indexed sessions run CUBIC, even-indexed BBR
};

/// One shared-bottleneck topology preset.
struct ContentionPreset {
  std::string_view topology;
  /// Fair-queue (max-min) scheduling at the bottleneck instead of one FIFO.
  bool fair_queue;
  /// Shared-link capacity = capacity_scale * group_size * (one sampled
  /// access-path trace). Below 1.0 the bottleneck is oversubscribed — the
  /// group genuinely contends instead of each member seeing a private path.
  double capacity_scale;
  /// Shared buffer, in bandwidth-delay products at the scaled mean rate and
  /// the group's mean propagation RTT (floored at 64 kB).
  double queue_bdp;
  ContentionCc cc;
};

/// The preset row for `topology`, from the fixed table of "edge" (CDN edge,
/// FIFO, mild oversubscription), "tower" (cell tower, FIFO, heavier
/// oversubscription, mixed CC) and "wifi" (home AP, per-flow fair
/// queuing). An unknown topology is an error listing the known ones.
const ContentionPreset& contention_preset(std::string_view topology);

/// A spec grouping `group_size` sessions behind `topology`'s preset
/// bottleneck; the topology must be a preset.
ContentionSpec make_contention_spec(const std::string& topology,
                                    int group_size);

/// One contention group as a single fleet task: `g` member sessions whose
/// TCP connections share one SharedLinkSimulator, advanced in lockstep on a
/// group-local virtual clock. Packaging the whole group as ONE FleetTask
/// keeps the engine's tasks mutually independent — the fleet == sequential
/// bitwise contract therefore survives any shard or thread count without the
/// engine knowing contention exists, and colocation of a group is automatic.
///
/// Each member is a SessionTask over an externally driven TcpSender, so the
/// whole session life cycle (CONSORT accounting, fault hooks, preamble,
/// streams, telemetry) is the private-path one. The group owns only what is
/// about the group: the shared link, the lockstep dt, the arrival and wake
/// boundaries, fairness and byte accounting. Members park at ABR decisions;
/// prepare() surfaces the lowest-indexed parked member to the engine, so
/// batched TTP staging and finish_chunk() route to one member at a time and
/// the engine's prepare/stage/finish protocol is unchanged.
class ContentionGroupTask : public sim::FleetTask {
 public:
  /// One member session. `session` runs on a shared connection
  /// (SessionTask::Connection::kShared*); `arrival_offset_s` is its fleet
  /// arrival relative to the group's (= first member's) arrival; offsets
  /// are ascending with member index.
  struct Member {
    std::unique_ptr<SessionTask> session;
    double arrival_offset_s = 0.0;
  };

  /// `shared_sample` is one access-path sample from the scenario generator;
  /// its trace is rescaled by the topology preset's capacity_scale *
  /// group_size to become the shared bottleneck.
  ContentionGroupTask(std::vector<Member> members, const ContentionSpec& spec,
                      net::NetworkPath shared_sample);
  ContentionGroupTask(const ContentionGroupTask&) = delete;
  ContentionGroupTask& operator=(const ContentionGroupTask&) = delete;

  Step prepare() override;
  bool stage(fugu::TtpInferenceBatch& batch) override;
  void finish_chunk() override;
  [[nodiscard]] double elapsed_s() const override { return world_s_; }
  [[nodiscard]] int64_t session_count() const override {
    return static_cast<int64_t>(members_.size());
  }
  void record_load(stats::LoadSeries& load, double arrival_s,
                   double end_s) const override;
  /// Members' fault events, restamped from member-local time onto the
  /// group clock.
  void drain_fault_events(std::vector<FaultEvent>& out) override;

  /// Jain fairness index over the members' delivered bytes on the shared
  /// link (members that never opened a connection are excluded). 1.0 when
  /// fewer than two members transferred anything.
  [[nodiscard]] double fairness_index() const;

  /// Bytes all members offered to the shared link, bytes it delivered and
  /// bytes its queue dropped — the link's exact conservation triple,
  /// surfaced per group for the sim-plane contention metrics.
  [[nodiscard]] double shared_offered_bytes() const;
  [[nodiscard]] double shared_delivered_bytes() const;
  [[nodiscard]] double shared_lost_bytes() const;

 private:
  struct MemberState {
    Member m;
    /// What the session needs; an unarrived member waits for its arrival.
    SessionTask::Need need = SessionTask::Need::kWait;
    int flow = -1;
    double wake_at_w = 0.0;  ///< Need::kWait: world time to resume
    double end_w = 0.0;      ///< world time the member finished
  };

  /// Resume a member's session and note what it needs next (a wait becomes
  /// a wake boundary on the group clock).
  void advance_member(MemberState& s);
  /// Connections the lockstep world steps: opened and not yet finished.
  [[nodiscard]] static net::TcpSender* live_sender(MemberState& s);
  /// One lockstep world round: process due arrivals/wakes, else pick dt,
  /// step every live connection through the shared link, collect transfer
  /// completions. Returns true while any member is not done.
  bool advance_world();

  net::ThroughputTrace shared_trace_;
  std::optional<net::SharedLinkSimulator> link_;
  std::vector<MemberState> members_;

  double world_s_ = 0.0;  ///< group-local virtual clock
  size_t current_ = 0;    ///< member the pending kDecision belongs to

  // Step scratch.
  std::vector<double> offered_;
  std::vector<net::LinkStepResult> results_;
};

}  // namespace puffer::exp

#endif  // PUFFER_EXP_CONTENTION_HH
