#ifndef PUFFER_EXP_FLEET_TRIAL_HH
#define PUFFER_EXP_FLEET_TRIAL_HH

#include <vector>

#include "exp/contention.hh"
#include "exp/trial.hh"
#include "sim/arrivals.hh"
#include "sim/fleet.hh"

namespace puffer::exp {

/// A randomized trial executed as a fleet: sessions arrive per `arrivals`
/// and are interleaved concurrently on one virtual timeline by
/// sim::FleetEngine. run_trial(config) is this with arrivals so sparse that
/// sessions run back to back. The fleet runs RCT trials only: a config with
/// trial.paired_paths is refused, because paired replay is run_trial's one
/// single-scheme trial per scheme.
///
/// Determinism contract: sessions are mutually independent (each has its
/// own path, TCP connection, viewer and per-session RNG), so the fleet's
/// interleaving cannot change any session's results — the merged
/// TrialResult is bit-identical to driving each session's SessionTask to
/// completion in session-index order, at any arrival process, thread
/// count AND shard count.
/// Partial results are appended to the merged TrialResult in ascending
/// session-index order as a streaming frontier (a completed session's
/// partial is folded in and freed as soon as every earlier session has
/// finished), so the resident footprint tracks peak concurrency, not
/// session count. What the fleet adds is the load dimension: a concurrency
/// time series and fused-GEMM batched inference across
/// concurrently-deciding sessions.
struct FleetTrialConfig {
  TrialConfig trial;           ///< trial.num_threads: engine worker threads
  sim::ArrivalSpec arrivals;   ///< session-arrival process on virtual time
  /// Event-queue shards (0 = one per worker thread). Per-session results
  /// and the merged trial are bit-identical at any value; only the
  /// batching counters (per-shard coalescing windows) vary with it.
  int num_shards = 0;
  /// Shared-bottleneck grouping. group_size == 1 (default) keeps the
  /// historical private-path fleet. group_size > 1 co-simulates each run of
  /// `group_size` consecutive sessions behind one shared link as a single
  /// fleet task, so the bitwise shard/thread-invariance contract holds
  /// unchanged.
  ContentionSpec contention;
  /// Optional virtual-time trace sink, forwarded to the engine (see
  /// sim::FleetConfig::trace). Does not perturb results.
  obs::TraceWriter* trace = nullptr;
};

struct FleetTrialResult {
  TrialResult trial;        ///< same shape as run_trial — directly comparable
  sim::FleetRunStats fleet;  ///< load series + batching counters
  /// With contention.group_size > 1: Jain fairness of delivered bytes per
  /// contention group, indexed by group. Empty otherwise.
  std::vector<double> group_fairness;
  /// Combined sim-plane snapshot: the engine's merged metrics, then the
  /// trial layer's (contention bytes/fairness, faults),
  /// then run-level gauges (merge-frontier high-water — the one
  /// scheduling-dependent entry, excluded from determinism comparisons).
  obs::MetricSnapshot metrics;
};

/// Shards per worker thread of a back-to-back trial. Back-to-back sessions
/// never overlap, so there is no cross-session batch to keep together, and
/// more shards than workers let ThreadPool's next-index hand-out even out
/// the heavy-tailed session lengths.
inline constexpr int kBackToBackShardsPerThread = 4;

/// The fleet run behind run_trial(config): arrivals so sparse that each
/// shard streams its sessions back to back, on kBackToBackShardsPerThread
/// shards per resolved worker thread.
FleetTrialConfig back_to_back(const TrialConfig& config);

FleetTrialResult run_fleet_trial(const FleetTrialConfig& config,
                                 const SchemeArtifacts& artifacts);
FleetTrialResult run_fleet_trial(const FleetTrialConfig& config,
                                 const SchemeFactory& factory);

}  // namespace puffer::exp

#endif  // PUFFER_EXP_FLEET_TRIAL_HH
