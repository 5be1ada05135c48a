#ifndef PUFFER_EXP_TRIAL_HH
#define PUFFER_EXP_TRIAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/registry.hh"
#include "fugu/dataset.hh"
#include "net/scenario.hh"
#include "sim/faults.hh"
#include "sim/session.hh"
#include "stats/summary.hh"
#include "util/rng.hh"

namespace puffer::exp {

/// Streams watched for less than this are excluded from the analysis
/// (Figure A1's exclusion threshold).
inline constexpr double kMinWatchTimeS = 4.0;

struct TrialConfig {
  std::vector<std::string> schemes = {"Fugu", "MPC-HM", "RobustMPC-HM",
                                      "Pensieve", "BBA"};
  int sessions_per_scheme = 400;
  /// Which world sessions stream over, one of the scenario families in
  /// net/scenario.cc's table. The default is the deployment-like
  /// heavy-tailed world; "fcc-emulation" gives Figure 11's mahimahi-style
  /// contrast, "trace-replay" + trace_path replays a recorded trace.
  net::ScenarioSpec scenario;
  uint64_t seed = 1;
  /// Paired mode: every scheme sees the same sequence of sessions (paths,
  /// users, videos). This is what emulators allow and real RCTs cannot do
  /// (section 5.3) — used for the Figure 11 emulation panel. run_trial
  /// runs it as one single-scheme RCT trial per scheme on this seed;
  /// run_fleet_trial refuses it.
  bool paired_paths = false;
  /// Collect per-chunk transfer logs for TTP training.
  bool collect_logs = false;
  int day = 0;  ///< day tag for collected logs
  sim::StreamRunConfig stream;
  /// Worker threads of the fleet engine that runs the trial. 0 means "use
  /// all hardware threads"; 1 runs every session on the calling thread.
  /// run_trial gives each of n workers kBackToBackShardsPerThread shards
  /// (fleet_trial.hh). Any value yields bit-identical TrialResult contents:
  /// sessions are independent given their plan (each derives from
  /// master.split(session_index) and every scheme fully resets per
  /// session), and partial results are merged in session-index order.
  int num_threads = 0;
  /// Fault-injection plan (disabled by default — the zero-fault contract:
  /// a disabled plan leaves every result byte identical to pre-fault
  /// builds). Draws are keyed on per-session run seeds, so they are
  /// invariant to thread and shard count.
  sim::FaultPlan faults;
};

/// Figure A1-style accounting.
struct ConsortCounts {
  int64_t sessions = 0;
  int64_t streams = 0;
  int64_t never_began = 0;
  int64_t under_min_watch = 0;
  int64_t decoder_failure = 0;
  int64_t truncated = 0;  ///< loss of contact (still considered)
  int64_t considered = 0;
};

struct SchemeResult {
  std::string scheme;
  std::vector<stats::StreamFigures> considered;
  std::vector<double> session_durations_s;  ///< total time on player, per session
  ConsortCounts consort;
  fugu::TtpDataset logs;  ///< non-empty when collect_logs

  /// Figure 8's slow-path cut: mean delivery rate below 6 Mbit/s.
  static constexpr double kSlowPathMbps = 6.0;

  /// Subset of considered streams on slow paths (mean delivery rate below
  /// kSlowPathMbps, Figure 8 right panel).
  [[nodiscard]] std::vector<stats::StreamFigures> slow_paths() const;
};

struct TrialResult {
  std::vector<SchemeResult> schemes;

  [[nodiscard]] const SchemeResult& result_for(const std::string& name) const;
};

/// Run a randomized controlled trial: sessions are blindly assigned to
/// schemes, streamed over sampled paths with sampled viewer behaviour, and
/// accounted per Figure A1. Runs on the fleet engine: run_fleet_trial of
/// back_to_back(config), or with paired_paths one such run per scheme, each
/// with that scheme alone, as jobs of one ThreadPool::run.
TrialResult run_trial(const TrialConfig& config,
                      const SchemeArtifacts& artifacts);

/// Same, with a custom scheme factory (for experiment arms outside the
/// standard registry, e.g. stale-TTP Fugu variants in the staleness study).
using SchemeFactory =
    std::function<std::unique_ptr<abr::AbrAlgorithm>(const std::string&)>;
TrialResult run_trial(const TrialConfig& config, const SchemeFactory& factory);

}  // namespace puffer::exp

#endif  // PUFFER_EXP_TRIAL_HH
