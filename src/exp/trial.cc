#include "exp/trial.hh"

#include <utility>

#include "exp/fleet_trial.hh"
#include "util/require.hh"
#include "util/thread_pool.hh"

namespace puffer::exp {

std::vector<stats::StreamFigures> SchemeResult::slow_paths() const {
  std::vector<stats::StreamFigures> slow;
  for (const auto& figures : considered) {
    if (figures.mean_delivery_rate_mbps < kSlowPathMbps &&
        figures.mean_delivery_rate_mbps > 0.0) {
      slow.push_back(figures);
    }
  }
  return slow;
}

const SchemeResult& TrialResult::result_for(const std::string& name) const {
  for (const auto& scheme : schemes) {
    if (scheme.scheme == name) {
      return scheme;
    }
  }
  throw RequirementError("TrialResult: no scheme named '" + name + "'");
}

namespace {

/// run_trial's arrival rate: a mean gap of ~30 years, so a shard's next
/// session arrives long after the previous one ended and sessions run back
/// to back, one live session (and one sampled path) per shard at a time.
constexpr double kBackToBackArrivalsPerS = 1e-9;

/// Plan i of any trial is make_session_plan(master.split(i)), whatever the
/// scheme list, so a single-scheme trial per scheme on the config's seed is
/// paired replay: every scheme streams the same plans. The trials run as
/// jobs of one pool (their fleet shards nest on its workers), and each
/// lands in its scheme's slot.
template <typename Schemes>
TrialResult run_back_to_back(const TrialConfig& config,
                             const Schemes& schemes) {
  if (!config.paired_paths) {
    return run_fleet_trial(back_to_back(config), schemes).trial;
  }
  require(!config.schemes.empty(), "run_trial: need at least one scheme");
  TrialResult result;
  result.schemes.resize(config.schemes.size());
  ThreadPool::run(static_cast<int64_t>(config.schemes.size()),
                  ThreadPool::resolve(config.num_threads),
                  [&](const int64_t s) {
                    TrialConfig single = config;
                    single.schemes = {config.schemes[static_cast<size_t>(s)]};
                    single.paired_paths = false;
                    result.schemes[static_cast<size_t>(s)] = std::move(
                        run_fleet_trial(back_to_back(single), schemes)
                            .trial.schemes.front());
                  });
  return result;
}

}  // namespace

FleetTrialConfig back_to_back(const TrialConfig& config) {
  FleetTrialConfig fleet;
  fleet.trial = config;
  fleet.arrivals.rate_per_s = kBackToBackArrivalsPerS;
  fleet.num_shards =
      kBackToBackShardsPerThread * ThreadPool::resolve(config.num_threads);
  return fleet;
}

TrialResult run_trial(const TrialConfig& config,
                      const SchemeArtifacts& artifacts) {
  return run_back_to_back(config, artifacts);
}

TrialResult run_trial(const TrialConfig& config, const SchemeFactory& factory) {
  return run_back_to_back(config, factory);
}

}  // namespace puffer::exp
