#ifndef PUFFER_BENCHMARK_BENCH_HH
#define PUFFER_BENCHMARK_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign.hh"
#include "exp/fleet_trial.hh"

namespace puffer::bench {

/// The four benchmark workloads. Each one's session population is pinned by
/// its definition (kPopulationSeed): the per-decision cost of this simulator
/// is heavy-tailed in the sampled paths, so two seeded populations of a size
/// one run can afford differ by ~30% in throughput, which would swamp any
/// regression bound. The --seed argument therefore only picks which mode
/// (T threads or 1 thread) runs first in the timed alternation (README.md).
enum class WorkloadKind { kFleet, kCampaign };

inline constexpr uint64_t kPopulationSeed = 20190119;  // the trial's start date

struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kFleet;
  exp::FleetTrialConfig fleet;   ///< kFleet (trial.num_threads set per run)
  exp::CampaignConfig campaign;  ///< kCampaign (num_threads set per run)
  /// Stable identity of everything above, for result provenance.
  std::string description;
};

/// Resolves a workload by name; throws RequirementError for unknown names.
Workload make_workload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& workload_names();

struct Options {
  std::string workload;
  uint64_t seed = kPopulationSeed;
  double seconds = 20.0;  ///< BENCHMARK.json's run_seconds
  bool trace = false;
  std::string out_dir;  ///< results directory; empty: no files written
  std::string commit = "unknown";
  int threads = 1;      ///< T = min(4, hardware threads)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark process reports: the audit tallies and its metrics.
struct Report {
  int64_t attempted = 0;  ///< audited units (streams, CONSORT blocks, days)
  int64_t failed = 0;     ///< audited units whose results differ bitwise
  std::vector<Metric> metrics;
  /// Informational key/value lines (figures digest, repetition counts).
  std::vector<std::pair<std::string, std::string>> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// End-to-end run: set-up, then timed repetitions at T threads and at one
/// thread, alternating until opts.seconds have been measured.
Report run_timed(const Workload& workload, const Options& opts);

/// Traced run: per-layer spans from the benchmark's own runners.
Report run_traced(const Workload& workload, const Options& opts);

// --- helpers shared by the timed and traced runs ---------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(const Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);
/// Value at quantile q in [0, 1] (linear interpolation).
double quantile(std::vector<double> values, double q);

/// `config` on `threads` workers. One thread runs one shard; T threads run
/// four shards each, so the pool hands shards to whichever worker is free
/// and one slowed core delays a quarter of its share instead of setting the
/// wall time (measured: ~8% -> ~5% run-to-run spread on a shared 4-core VM).
exp::FleetTrialConfig on_threads(exp::FleetTrialConfig config, int threads);

/// The Fugu model every fleet workload streams with: a fresh random
/// initialization (training is the campaign workload's job).
std::shared_ptr<const fugu::TtpModel> fleet_model();

/// The bench's scheme assembly for fleet workloads, identical to the
/// registry's for these names.
exp::SchemeFactory fleet_factory(std::shared_ptr<const fugu::TtpModel> model);

/// Bitwise audit of `got` against `expected`: one unit per considered
/// stream and one per scheme's CONSORT block.
void audit_trial(const exp::TrialResult& expected,
                 const exp::TrialResult& got, Report& report);

/// FNV-1a over the raw bytes of every considered stream's figures, in
/// scheme and stream order (informational fingerprint of the outputs).
uint64_t figures_digest(const exp::TrialResult& trial);

/// Per-process working directory (campaign checkpoints) under build-bench/,
/// relative to the checkout root the benchmark runs from.
std::string work_dir(const std::string& leaf);

}  // namespace puffer::bench

#endif  // PUFFER_BENCHMARK_BENCH_HH
