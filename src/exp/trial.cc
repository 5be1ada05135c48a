#include "exp/trial.hh"

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
  return run_fleet_trial(back_to_back(config), artifacts).trial;
}

TrialResult run_trial(const TrialConfig& config, const SchemeFactory& factory) {
  return run_fleet_trial(back_to_back(config), factory).trial;
}

}  // namespace puffer::exp
