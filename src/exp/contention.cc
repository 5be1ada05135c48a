#include "exp/contention.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "util/require.hh"

namespace puffer::exp {

namespace {

/// Boundary tolerance for the world clock: dt is clipped to the next
/// arrival/wake boundary, so W lands on boundaries only up to one rounding
/// error; treating anything this close as "due" keeps the loop from taking
/// denormal-sized steps. Deterministic — purely a function of the FP values.
constexpr double kBoundaryEpsS = 1e-9;

net::ThroughputTrace scale_trace(const net::ThroughputTrace& trace,
                                 const double scale) {
  std::vector<double> rates = trace.rates();
  for (double& r : rates) {
    r *= scale;
  }
  return net::ThroughputTrace{std::move(rates), trace.segment_duration()};
}

/// The topology presets, sorted by name. Every preset value lives here.
constexpr std::array kPresets{
    // CDN edge uplink: big FIFO, mild oversubscription, BBR everywhere.
    ContentionPreset{"edge", /*fair_queue=*/false, /*capacity_scale=*/0.7,
                     /*queue_bdp=*/2.0, ContentionCc::kBbr},
    // Cell tower: heavier oversubscription, deeper buffer, mixed CC — the
    // regime where FIFO crowd-out between CUBIC and BBR shows up.
    ContentionPreset{"tower", /*fair_queue=*/false, /*capacity_scale=*/0.55,
                     /*queue_bdp=*/3.0, ContentionCc::kMixed},
    // Home AP with per-flow fair queuing (fq_codel-style scheduling).
    ContentionPreset{"wifi", /*fair_queue=*/true, /*capacity_scale=*/0.8,
                     /*queue_bdp=*/1.5, ContentionCc::kBbr},
};
static_assert(std::ranges::is_sorted(kPresets, {},
                                     &ContentionPreset::topology),
              "kPresets must stay sorted by topology");

}  // namespace

const ContentionPreset& contention_preset(const std::string_view topology) {
  const auto it =
      std::ranges::find(kPresets, topology, &ContentionPreset::topology);
  if (it == kPresets.end()) {
    std::string known;
    for (const ContentionPreset& preset : kPresets) {
      known += (known.empty() ? "" : ", ") + std::string{preset.topology};
    }
    throw RequirementError("unknown contention topology '" +
                           std::string{topology} +
                           "'; known topologies: " + known);
  }
  return *it;
}

ContentionSpec make_contention_spec(const std::string& topology,
                                    const int group_size) {
  static_cast<void>(contention_preset(topology));
  return ContentionSpec{group_size, topology};
}

ContentionGroupTask::ContentionGroupTask(std::vector<Member> members,
                                         const ContentionSpec& spec,
                                         net::NetworkPath shared_sample)
    : shared_trace_(scale_trace(
          shared_sample.trace,
          contention_preset(spec.topology).capacity_scale *
              static_cast<double>(members.size()))) {
  require(!members.empty(), "ContentionGroupTask: empty group");
  const ContentionPreset& preset = contention_preset(spec.topology);

  // Shared drop-tail buffer: queue_bdp bandwidth-delay products at the
  // scaled mean rate and the group's mean propagation RTT.
  double mean_rtt_s = 0.0;
  for (const Member& m : members) {
    require(m.session != nullptr && m.session->plan().path.has_value(),
            "ContentionGroupTask: member without a path");
    mean_rtt_s += m.session->plan().path->min_rtt_s;
  }
  mean_rtt_s /= static_cast<double>(members.size());
  net::SharedLinkConfig link_config;
  link_config.mode = preset.fair_queue ? net::ShareMode::kFairQueue
                                       : net::ShareMode::kFifo;
  link_config.queue_capacity_bytes =
      std::max(preset.queue_bdp * shared_trace_.mean_rate() * mean_rtt_s,
               64.0 * 1024.0);
  link_.emplace(shared_trace_, link_config);

  members_.reserve(members.size());
  double prev_offset = 0.0;
  for (Member& m : members) {
    require(m.arrival_offset_s >= prev_offset,
            "ContentionGroupTask: member offsets must ascend");
    prev_offset = m.arrival_offset_s;
    MemberState s;
    s.wake_at_w = m.arrival_offset_s;
    s.m = std::move(m);
    s.flow = link_->add_flow();
    members_.push_back(std::move(s));
  }
  offered_.assign(members_.size(), 0.0);
  results_.assign(members_.size(), net::LinkStepResult{});
}

ContentionGroupTask::Step ContentionGroupTask::prepare() {
  for (;;) {
    for (size_t i = 0; i < members_.size(); i++) {
      if (members_[i].need == SessionTask::Need::kDecision) {
        current_ = i;
        return Step::kDecision;
      }
    }
    if (!advance_world()) {
      return Step::kDone;
    }
  }
}

bool ContentionGroupTask::stage(fugu::TtpInferenceBatch& batch) {
  return members_[current_].m.session->stage(batch);
}

void ContentionGroupTask::finish_chunk() {
  MemberState& s = members_[current_];
  s.m.session->finish_chunk();
  // A transfer within the fluid slack completes at once — the same
  // immediate-completion path the private sender takes.
  advance_member(s);
}

void ContentionGroupTask::drain_fault_events(std::vector<FaultEvent>& out) {
  for (MemberState& s : members_) {
    const size_t first = out.size();
    s.m.session->drain_fault_events(out);
    for (size_t k = first; k < out.size(); k++) {
      out[k].time_s += s.m.arrival_offset_s;
    }
  }
}

void ContentionGroupTask::advance_member(MemberState& s) {
  double wait_s = 0.0;
  s.need = s.m.session->advance(wait_s);
  if (s.need == SessionTask::Need::kWait) {
    s.wake_at_w = world_s_ + wait_s;
  } else if (s.need == SessionTask::Need::kDone) {
    s.end_w = world_s_;
  }
}

net::TcpSender* ContentionGroupTask::live_sender(MemberState& s) {
  return s.need == SessionTask::Need::kDone ? nullptr : s.m.session->sender();
}

bool ContentionGroupTask::advance_world() {
  using Need = SessionTask::Need;
  // Phase 1: process everything due *now* (arrivals, wake-ups), in member
  // order; if anything fired, let prepare() re-scan for parked decisions.
  bool activity = false;
  for (MemberState& s : members_) {
    if (s.need == Need::kWait && s.wake_at_w <= world_s_ + kBoundaryEpsS) {
      advance_member(s);
      activity = true;
    }
  }
  if (activity) {
    return true;
  }

  // Phase 2: pick the lockstep dt — the finest transferring connection's
  // preferred step, clipped to the next arrival/wake boundary; with no
  // transfer in flight, idle toward the boundary in <= 100 ms hops (the
  // private path's idle_until cadence).
  double boundary = std::numeric_limits<double>::infinity();
  double dt = std::numeric_limits<double>::infinity();
  bool any_live = false;
  bool any_transfer = false;
  for (MemberState& s : members_) {
    any_live = any_live || s.need != Need::kDone;
    if (s.need == Need::kWait) {
      boundary = std::min(boundary, s.wake_at_w);
    } else if (s.need == Need::kTransfer) {
      any_transfer = true;
      dt = std::min(dt, s.m.session->sender()->preferred_dt());
    }
  }
  if (!any_live) {
    return false;
  }
  if (!any_transfer) {
    require(boundary < std::numeric_limits<double>::infinity(),
            "ContentionGroupTask: live members but nothing to wait for");
    dt = 0.1;
  }
  if (boundary < std::numeric_limits<double>::infinity()) {
    dt = std::min(dt, boundary - world_s_);
  }
  require(dt > 0.0, "ContentionGroupTask: non-positive world step");

  // Phase 3: lockstep fluid step — every open connection offers bytes, the
  // shared link splits the capacity, every connection absorbs its share.
  // Ascending member order throughout (the conservation/determinism
  // contract); members without a connection yet (or already done) offer 0,
  // and a done member's residual queue keeps draining.
  std::fill(offered_.begin(), offered_.end(), 0.0);
  for (MemberState& s : members_) {
    if (net::TcpSender* sender = live_sender(s)) {
      offered_[static_cast<size_t>(s.flow)] = sender->offered_step(dt);
    }
  }
  link_->step(world_s_, dt, offered_, results_);
  for (MemberState& s : members_) {
    if (net::TcpSender* sender = live_sender(s)) {
      sender->absorb_step(dt, results_[static_cast<size_t>(s.flow)]);
    }
  }
  world_s_ += dt;

  // Phase 4: collect transfer completions, in member order.
  for (MemberState& s : members_) {
    if (s.need == Need::kTransfer &&
        !s.m.session->sender()->transfer_in_flight()) {
      advance_member(s);
    }
  }
  return true;
}

void ContentionGroupTask::record_load(stats::LoadSeries& load,
                                      const double arrival_s,
                                      const double /*end_s*/) const {
  for (const MemberState& s : members_) {
    load.add(arrival_s + s.m.arrival_offset_s, +1);
    load.add(arrival_s + s.end_w, -1);
  }
}

double ContentionGroupTask::fairness_index() const {
  std::vector<double> delivered;
  delivered.reserve(members_.size());
  for (const MemberState& s : members_) {
    if (s.m.session->sender() != nullptr) {
      delivered.push_back(link_->delivered_total(s.flow));
    }
  }
  if (delivered.size() < 2) {
    return 1.0;
  }
  return net::jain_fairness_index(delivered);
}

double ContentionGroupTask::shared_offered_bytes() const {
  double total = 0.0;
  for (int flow = 0; flow < link_->num_flows(); flow++) {
    total += link_->offered_total(flow);
  }
  return total;
}

double ContentionGroupTask::shared_delivered_bytes() const {
  double total = 0.0;
  for (int flow = 0; flow < link_->num_flows(); flow++) {
    total += link_->delivered_total(flow);
  }
  return total;
}

double ContentionGroupTask::shared_lost_bytes() const {
  double total = 0.0;
  for (int flow = 0; flow < link_->num_flows(); flow++) {
    total += link_->lost_total(flow);
  }
  return total;
}

}  // namespace puffer::exp
