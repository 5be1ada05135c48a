#include "exp/fleet_trial.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/session_task.hh"
#include "net/scenario.hh"
#include "util/require.hh"
#include "util/sync.hh"
#include "util/thread_annotations.hh"

namespace puffer::exp {

namespace {

// Tripwire for the field-by-field merge in append_scheme_result: if
// ConsortCounts grows a field, this forces whoever adds it to extend the
// merge (a missed field would silently zero it on partial-result runs only,
// breaking the bit-identity guarantee). SchemeResult's container members
// have platform-dependent sizes, so keep its member list in sync by hand:
// scheme, considered, session_durations_s, consort, logs.
static_assert(sizeof(ConsortCounts) == 7 * sizeof(int64_t),
              "ConsortCounts changed: update append_scheme_result and "
              "test::expect_identical in tests/test_helpers.hh accordingly");

/// Fresh per-scheme accumulators in config.schemes order.
std::vector<SchemeResult> empty_scheme_results(const TrialConfig& config) {
  std::vector<SchemeResult> results;
  results.reserve(config.schemes.size());
  for (const auto& name : config.schemes) {
    results.push_back(SchemeResult{});
    results.back().scheme = name;
  }
  return results;
}

/// Merge one partial per-scheme accumulator into `into`, preserving the
/// order of `from`'s entries.
void append_scheme_result(SchemeResult& into, SchemeResult& from) {
  into.considered.insert(into.considered.end(),
                         std::make_move_iterator(from.considered.begin()),
                         std::make_move_iterator(from.considered.end()));
  into.session_durations_s.insert(into.session_durations_s.end(),
                                  from.session_durations_s.begin(),
                                  from.session_durations_s.end());
  into.logs.insert(into.logs.end(), std::make_move_iterator(from.logs.begin()),
                   std::make_move_iterator(from.logs.end()));
  into.consort.sessions += from.consort.sessions;
  into.consort.streams += from.consort.streams;
  into.consort.never_began += from.consort.never_began;
  into.consort.under_min_watch += from.consort.under_min_watch;
  into.consort.decoder_failure += from.consort.decoder_failure;
  into.consort.truncated += from.consort.truncated;
  into.consort.considered += from.consort.considered;
}

/// Trial-layer sim-plane metrics, one set per shard (identical schema →
/// positional merge in ascending shard order, like the engine's).
struct TrialMetrics {
  obs::MetricRegistry registry;
  obs::MetricRegistry::Id contention_offered_bytes;
  obs::MetricRegistry::Id contention_delivered_bytes;
  obs::MetricRegistry::Id contention_lost_bytes;
  obs::MetricRegistry::Id contention_fairness;
  obs::MetricRegistry::Id faults_ttp_decisions;
  obs::MetricRegistry::Id faults_ttp_failures;
  obs::MetricRegistry::Id faults_ttp_fallback_decisions;
  obs::MetricRegistry::Id faults_ttp_engagements;
  obs::MetricRegistry::Id faults_degraded_sessions;
  obs::MetricRegistry::Id faults_session_aborts;
  obs::MetricRegistry::Id faults_link_outages;
  obs::MetricRegistry::Id faults_max_session_fallbacks;

  TrialMetrics() {
    // Per-group byte totals and fairness are properties of the groups
    // themselves — sums and multisets are partition-invariant.
    contention_offered_bytes = registry.counter("contention.offered_bytes");
    contention_delivered_bytes =
        registry.counter("contention.delivered_bytes");
    contention_lost_bytes = registry.counter("contention.lost_bytes");
    contention_fairness = registry.histogram(
        "contention.fairness", {0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0});
    // Fault-plane counters and degradation-state gauges. Every value is a
    // pure per-session (or per-group) function of the fault plan's seed —
    // partition-invariant sums and maxima, determinism class plain.
    faults_ttp_decisions = registry.counter("faults.ttp_decisions");
    faults_ttp_failures = registry.counter("faults.ttp_failures");
    faults_ttp_fallback_decisions =
        registry.counter("faults.ttp_fallback_decisions");
    faults_ttp_engagements = registry.counter("faults.ttp_engagements");
    faults_degraded_sessions = registry.counter("faults.degraded_sessions");
    faults_session_aborts = registry.counter("faults.session_aborts");
    faults_link_outages = registry.counter("faults.link_outages");
    faults_max_session_fallbacks =
        registry.gauge("faults.max_session_fallbacks");
  }
};

/// What a fleet session owns. A base class of MeasuredSessionTask so that it
/// is built before, and destroyed after, the SessionTask that refers to it.
struct SessionResources {
  SessionPlan plan;
  std::unique_ptr<abr::AbrAlgorithm> algo;
};

/// The fleet's per-session step, for private-path sessions and contention-
/// group members alike: a SessionTask that owns its algorithm instance and
/// records the session's faults.* metrics. Sessions overlap in fleet time,
/// so each active session has its own instance, built at admission and
/// freed with the session. Destroyed on the owning shard's worker — by the
/// engine, or by the group that owns it — so the shard registry is
/// exclusively ours.
class MeasuredSessionTask final : private SessionResources,
                                  public SessionTask {
 public:
  MeasuredSessionTask(SessionResources resources, const TrialConfig& config,
                      SchemeResult& result, const Connection connection,
                      TrialMetrics& metrics)
      : SessionResources(std::move(resources)),
        SessionTask(SessionResources::plan, *algo, config, result,
                    connection),
        metrics_(metrics) {}

  MeasuredSessionTask(const MeasuredSessionTask&) = delete;
  MeasuredSessionTask& operator=(const MeasuredSessionTask&) = delete;

  ~MeasuredSessionTask() override {
    // Harvest the session's fault/degradation accounting while the
    // algorithm instance (and its wrapper state) is still alive.
    obs::MetricRegistry& reg = metrics_.registry;
    if (const fugu::ResilientPredictor* res = resilient()) {
      const fugu::SessionFaultStats& s = res->session_stats();
      reg.add(metrics_.faults_ttp_decisions, s.decisions);
      reg.add(metrics_.faults_ttp_failures, s.failures);
      reg.add(metrics_.faults_ttp_fallback_decisions, s.fallback_decisions);
      reg.add(metrics_.faults_ttp_engagements, s.engagements);
      if (s.degraded) {
        reg.add(metrics_.faults_degraded_sessions);
      }
      reg.set_max(metrics_.faults_max_session_fallbacks,
                  s.fallback_decisions);
    }
    reg.add(metrics_.faults_session_aborts, aborted_streams());
  }

 private:
  TrialMetrics& metrics_;
};

/// A ContentionGroupTask that, on completion, records the group's
/// contention metrics and writes its fairness index into its pre-indexed
/// result slot. The engine destroys it on the shard's own worker, so the
/// slot write is shard-confined; the engine join publishes it. Its member
/// sessions are destroyed after this, each recording its own step.
class MeasuredGroupTask final : public ContentionGroupTask {
 public:
  MeasuredGroupTask(std::vector<Member> members, const ContentionSpec& spec,
                    net::NetworkPath shared_sample, double& fairness_slot,
                    TrialMetrics& metrics)
      : ContentionGroupTask(std::move(members), spec, std::move(shared_sample)),
        fairness_slot_(fairness_slot),
        metrics_(metrics) {}

  MeasuredGroupTask(const MeasuredGroupTask&) = delete;
  MeasuredGroupTask& operator=(const MeasuredGroupTask&) = delete;

  ~MeasuredGroupTask() override {
    const double fairness = fairness_index();
    fairness_slot_ = fairness;
    obs::MetricRegistry& reg = metrics_.registry;
    reg.add(metrics_.contention_offered_bytes,
            std::llround(shared_offered_bytes()));
    reg.add(metrics_.contention_delivered_bytes,
            std::llround(shared_delivered_bytes()));
    reg.add(metrics_.contention_lost_bytes, std::llround(shared_lost_bytes()));
    reg.observe(metrics_.contention_fairness, fairness);
  }

 private:
  double& fairness_slot_;
  TrialMetrics& metrics_;
};

/// Streaming ascending-order merge: shards complete sessions out of global
/// order, but partials must fold into the TrialResult in session-index
/// order to stay bit-identical to running them one by one. The frontier
/// tracks which sessions have completed and folds+frees every partial up to
/// the first incomplete one, so unmerged partials are bounded by the
/// frontier lag (≈ peak concurrency), not the session count.
struct MergeFrontier {
  Mutex mutex GUARDS(completed, next_to_merge, unmerged, unmerged_high_water);
  std::vector<char> completed GUARDED_BY(mutex);
  int64_t next_to_merge GUARDED_BY(mutex) = 0;
  /// Completed-but-unmerged partials right now / at the worst moment. The
  /// high-water depends on which shard raced ahead — it is the run's one
  /// scheduling-dependent metric, exported as such.
  int64_t unmerged GUARDED_BY(mutex) = 0;
  int64_t unmerged_high_water GUARDED_BY(mutex) = 0;
};

}  // namespace

FleetTrialResult run_fleet_trial(const FleetTrialConfig& config,
                                 const SchemeArtifacts& artifacts) {
  // Wire an enabled fault plan into scheme assembly (resilient Fugu). The
  // copied artifacts keep the plan pointer valid for the factory's life.
  SchemeArtifacts wired = artifacts;
  if (config.trial.faults.enabled && wired.faults == nullptr) {
    wired.faults = &config.trial.faults;
  }
  return run_fleet_trial(config, [wired](const std::string& name) {
    return make_scheme(name, wired);
  });
}

FleetTrialResult run_fleet_trial(const FleetTrialConfig& config,
                                 const SchemeFactory& factory) {
  const TrialConfig& trial_config = config.trial;
  require(!trial_config.schemes.empty(),
          "run_fleet_trial: need at least one scheme");
  require(!trial_config.paired_paths,
          "run_fleet_trial: paired_paths is run_trial's mode (one "
          "single-scheme trial per scheme); the fleet runs RCT trials only");
  const auto num_schemes =
      static_cast<int64_t>(trial_config.schemes.size());
  // Each plan goes to one blindly drawn scheme. Clamped so a negative
  // sessions_per_scheme yields an empty trial instead of a negative count.
  const int64_t num_plans =
      std::max<int64_t>(0, trial_config.sessions_per_scheme) * num_schemes;

  // Shared-bottleneck grouping: each run of group_size consecutive plans
  // becomes ONE engine task (a ContentionGroupTask co-simulating its
  // members), so tasks stay mutually independent and the bitwise
  // shard/thread-invariance contract is untouched.
  const ContentionSpec& contention = config.contention;
  require(contention.group_size >= 1,
          "run_fleet_trial: contention.group_size must be >= 1");
  const ContentionPreset& preset = contention_preset(contention.topology);
  const auto group_size = static_cast<int64_t>(contention.group_size);
  const bool grouped = group_size > 1;
  const int64_t num_groups =
      grouped ? (num_plans + group_size - 1) / group_size : 0;

  const std::unique_ptr<net::PathGenerator> paths =
      net::make_path_generator(trial_config.scenario);
  const sim::UserModel users{trial_config.seed};
  const Rng master{trial_config.seed};

  // One arrival per plan, on the virtual timeline, from a dedicated RNG
  // split (so the arrival schedule does not perturb any session's plan).
  const std::unique_ptr<sim::ArrivalProcess> arrival_process =
      sim::make_arrival_process(config.arrivals);
  Rng arrival_rng = master.split("fleet-arrivals");
  const std::vector<double> plan_arrivals =
      sim::sample_arrivals(*arrival_process, arrival_rng, num_plans);
  // One engine arrival per group, at its first member's arrival; members
  // joining later enter the group world at their arrival offsets.
  std::vector<double> group_arrivals;
  group_arrivals.reserve(static_cast<size_t>(num_groups));
  for (int64_t g = 0; g < num_groups; g++) {
    group_arrivals.push_back(
        plan_arrivals[static_cast<size_t>(g * group_size)]);
  }

  sim::FleetConfig engine_config;
  engine_config.num_threads = trial_config.num_threads;
  engine_config.num_shards = config.num_shards;
  engine_config.trace = config.trace;
  const sim::FleetEngine engine{engine_config};
  const int num_shards = engine.resolved_num_shards();

  // Per-session partial results, folded into the TrialResult in ascending
  // session order by the streaming frontier below — the merge order that
  // makes the result bit-identical to running the sessions one by one.
  // scheme_of and each partial are written by the owning shard's worker
  // before it reports the completion under the frontier mutex, which is
  // what makes them safe to read on whichever worker advances the frontier
  // past them. Each shard's worker owns its TrialMetrics exclusively.
  std::vector<std::unique_ptr<SchemeResult>> partials(
      static_cast<size_t>(num_plans));
  std::vector<size_t> scheme_of(static_cast<size_t>(num_plans), 0);
  std::vector<TrialMetrics> shards(static_cast<size_t>(num_shards));

  FleetTrialResult result;
  result.trial.schemes = empty_scheme_results(trial_config);
  if (grouped) {
    // Pre-indexed per-group slots; each group's destructor (on its owning
    // shard worker) writes exactly one.
    result.group_fairness.assign(static_cast<size_t>(num_groups), 1.0);
  }

  // The per-plan draw both factories share: the plan, the RCT scheme draw
  // from the session's own RNG right after its plan (same position at any
  // shard count), a fresh algorithm instance and the session's
  // partial-result slot. Grouping changes the world the sessions run in,
  // never which sessions exist.
  const auto make_session =
      [&](const int64_t plan_index, TrialMetrics& metrics,
          const SessionTask::Connection connection) {
        Rng session_rng = master.split(static_cast<uint64_t>(plan_index));
        SessionResources resources;
        resources.plan = make_session_plan(session_rng, users, *paths);
        const auto scheme =
            static_cast<size_t>(session_rng.uniform_int(0, num_schemes - 1));
        scheme_of[static_cast<size_t>(plan_index)] = scheme;
        resources.algo = factory(trial_config.schemes[scheme]);
        require(resources.algo != nullptr,
                "run_fleet_trial: factory returned null for '" +
                    trial_config.schemes[scheme] + "'");
        auto& partial = partials[static_cast<size_t>(plan_index)];
        partial = std::make_unique<SchemeResult>();
        return std::make_unique<MeasuredSessionTask>(
            std::move(resources), trial_config, *partial, connection, metrics);
      };

  const auto task_factory =
      [&](const int64_t plan_index,
          const int shard_index) -> std::unique_ptr<sim::FleetTask> {
    return make_session(plan_index, shards[static_cast<size_t>(shard_index)],
                        SessionTask::Connection::kPrivate);
  };

  // Contention factory: builds group `group_index` from its member
  // sessions, each a MeasuredSessionTask on a shared connection.
  const auto contention_factory =
      [&](const int64_t group_index,
          const int shard_index) -> std::unique_ptr<sim::FleetTask> {
    TrialMetrics& metrics = shards[static_cast<size_t>(shard_index)];
    const int64_t begin = group_index * group_size;
    const int64_t end = std::min(num_plans, begin + group_size);
    std::vector<ContentionGroupTask::Member> members;
    members.reserve(static_cast<size_t>(end - begin));
    double max_trace_s = 0.0;
    for (int64_t p = begin; p < end; p++) {
      const bool use_cubic = preset.cc == ContentionCc::kMixed && p % 2 == 1;
      ContentionGroupTask::Member member;
      member.session = make_session(
          p, metrics,
          use_cubic ? SessionTask::Connection::kSharedCubic
                    : SessionTask::Connection::kSharedBbr);
      member.arrival_offset_s = plan_arrivals[static_cast<size_t>(p)] -
                                plan_arrivals[static_cast<size_t>(begin)];
      max_trace_s =
          std::max(max_trace_s, member.session->plan().path->trace.duration());
      members.push_back(std::move(member));
    }
    // One extra access-path sample from the scenario becomes the shared
    // bottleneck; a dedicated split keeps it from perturbing member plans.
    Rng link_rng = master.split("contention-link")
                       .split(static_cast<uint64_t>(group_index));
    net::NetworkPath shared_sample = paths->sample_path(link_rng, max_trace_s);
    // Link-outage fault: the shared bottleneck goes dark for a drawn
    // window. Keyed on the group index alone, so the outage schedule is a
    // pure per-group function of the fault seed (shard/thread-invariant).
    // The final trace segment is never zeroed: capacity_at() extends it to
    // the end of time, and an everlasting outage would strand the group.
    const double outage_p =
        trial_config.faults.probability(sim::kFaultLinkOutage);
    if (outage_p > 0.0) {
      Rng outage_rng = trial_config.faults.rng(sim::kFaultLinkOutage)
                           .split(static_cast<uint64_t>(group_index));
      if (outage_rng.bernoulli(outage_p)) {
        std::vector<double> rates = shared_sample.trace.rates();
        const double seg_s = shared_sample.trace.segment_duration();
        const double total_s =
            static_cast<double>(rates.size() - 1) * seg_s;  // last seg exempt
        double window_s = trial_config.faults.duration_s(sim::kFaultLinkOutage);
        if (window_s <= 0.0) {
          window_s = 30.0;
        }
        window_s = std::min(window_s, 0.25 * total_s);
        const double start_s =
            outage_rng.uniform(0.0, std::max(0.0, total_s - window_s));
        for (size_t k = 0; k + 1 < rates.size(); k++) {
          const double t_s = static_cast<double>(k) * seg_s;
          if (t_s >= start_s && t_s < start_s + window_s) {
            rates[k] = 0.0;
          }
        }
        shared_sample.trace = net::ThroughputTrace{std::move(rates), seg_s};
        metrics.registry.add(metrics.faults_link_outages);
      }
    }
    return std::make_unique<MeasuredGroupTask>(
        std::move(members), contention, std::move(shared_sample),
        result.group_fairness[static_cast<size_t>(group_index)], metrics);
  };

  MergeFrontier frontier;
  {
    const MutexLock lock{frontier.mutex};
    frontier.completed.assign(static_cast<size_t>(num_plans), 0);
  }
  const auto on_complete = [&](const int64_t task_index, const int /*shard*/) {
    const MutexLock lock{frontier.mutex};
    if (grouped) {
      // One engine task covers a contiguous plan range.
      const int64_t begin = task_index * group_size;
      const int64_t end = std::min(num_plans, begin + group_size);
      for (int64_t p = begin; p < end; p++) {
        frontier.completed[static_cast<size_t>(p)] = 1;
      }
      frontier.unmerged += end - begin;
    } else {
      frontier.completed[static_cast<size_t>(task_index)] = 1;
      frontier.unmerged++;
    }
    frontier.unmerged_high_water =
        std::max(frontier.unmerged_high_water, frontier.unmerged);
    while (frontier.next_to_merge < num_plans &&
           frontier.completed[static_cast<size_t>(frontier.next_to_merge)] !=
               0) {
      const auto t = static_cast<size_t>(frontier.next_to_merge);
      append_scheme_result(result.trial.schemes[scheme_of[t]],
                                   *partials[t]);
      partials[t].reset();  // frees the partial at the frontier
      frontier.next_to_merge++;
      frontier.unmerged--;
    }
  };

  result.fleet = engine.run(
      grouped ? group_arrivals : plan_arrivals,
      grouped ? sim::FleetEngine::TaskFactory{contention_factory}
              : sim::FleetEngine::TaskFactory{task_factory},
      on_complete);
  int64_t frontier_high_water = 0;
  {
    const MutexLock lock{frontier.mutex};
    require(frontier.next_to_merge == num_plans,
            "run_fleet_trial: merge frontier did not drain");
    frontier_high_water = frontier.unmerged_high_water;
  }

  // Combined sim-plane snapshot: engine block, then trial block (per-shard
  // registries merged in ascending shard order — same discipline as the
  // engine's own merge), then the run-level block.
  result.metrics = result.fleet.metrics;
  obs::MetricSnapshot trial_merged;
  for (const TrialMetrics& shard : shards) {
    trial_merged.merge_from(shard.registry.snapshot());
  }
  result.metrics.append_from(trial_merged);
  obs::MetricRegistry run_registry;
  const auto frontier_gauge =
      run_registry.gauge("trial.merge_frontier_high_water",
                         {.scheduling_dependent = true});
  run_registry.set(frontier_gauge, frontier_high_water);
  result.metrics.append_from(run_registry.snapshot());
  return result;
}

}  // namespace puffer::exp
