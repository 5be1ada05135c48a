// Extension bench: sessions contending for shared bottlenecks.
//
// Puffer's streams each crossed their own access path, but a CDN edge or a
// busy home link is shared. This bench runs one fleet population (Fugu,
// MPC-HM and BBA, randomly assigned) behind FIFO "edge" bottlenecks of
// 1, 2, 4 and 8 flows and reports, per group size, the Jain fairness of
// delivered bytes (mean and worst group), the stall ratio, and the induced
// stall: the stall ratio over the group-size-1 (private path) baseline.
// Bit-identity of these figures across shard and thread counts is checked
// by test_fleet's ContentionBitIdenticalAcrossShardAndThreadCounts.

#include <algorithm>
#include <memory>
#include <string>

#include "bench_common.hh"
#include "exp/contention.hh"
#include "exp/fleet_trial.hh"
#include "exp/registry.hh"
#include "fugu/fugu.hh"
#include "util/table.hh"

int main() {
  using namespace puffer;

  // An untrained (seeded) TTP: the contention effects under study come from
  // the shared link, not from prediction quality, and this keeps the bench
  // free of the in-situ training pipeline.
  const auto model =
      std::make_shared<const fugu::TtpModel>(fugu::TtpConfig{}, 20190119);
  const exp::SchemeFactory factory =
      [&model](const std::string& name) -> std::unique_ptr<abr::AbrAlgorithm> {
    if (name == "Fugu") {
      return fugu::make_fugu(model, name);
    }
    return exp::make_scheme(name, exp::SchemeArtifacts{});
  };

  exp::FleetTrialConfig config;
  config.trial.schemes = {"Fugu", "MPC-HM", "BBA"};
  config.trial.sessions_per_scheme = bench::sessions_per_scheme(66);
  config.trial.seed = 20190119;
  config.trial.stream.max_stream_chunks = 60;
  config.trial.scenario = net::ScenarioSpec{"edge-contention"};
  config.arrivals.kind = "poisson";
  config.arrivals.rate_per_s = 0.05;
  std::printf("[setup] %zu schemes x %d sessions, edge bottlenecks, "
              "Poisson arrivals at %.2f/s\n\n",
              config.trial.schemes.size(), config.trial.sessions_per_scheme,
              config.arrivals.rate_per_s);

  Table table{{"Group size", "Fairness mean", "Fairness min", "Stall ratio",
               "Induced stall"}};
  double baseline_stall = 0.0;
  for (const int group_size : {1, 2, 4, 8}) {
    config.contention = exp::make_contention_spec("edge", group_size);
    const exp::FleetTrialResult result = exp::run_fleet_trial(config, factory);

    double stall_s = 0.0, watch_s = 0.0;
    for (const auto& scheme : result.trial.schemes) {
      for (const auto& figures : scheme.considered) {
        stall_s += figures.stall_time_s;
        watch_s += figures.watch_time_s;
      }
    }
    const double stall_ratio = watch_s > 0.0 ? stall_s / watch_s : 0.0;
    if (group_size == 1) {
      baseline_stall = stall_ratio;
    }

    // Private paths report no groups: fairness 1 by definition.
    double fairness_sum = 0.0, min_fairness = 1.0;
    for (const double fairness : result.group_fairness) {
      fairness_sum += fairness;
      min_fairness = std::min(min_fairness, fairness);
    }
    const double mean_fairness =
        result.group_fairness.empty()
            ? 1.0
            : fairness_sum / static_cast<double>(result.group_fairness.size());

    const double induced =
        baseline_stall > 0.0 ? stall_ratio / baseline_stall : 0.0;
    table.add_row({std::to_string(group_size), format_fixed(mean_fairness, 4),
                   format_fixed(min_fairness, 4), format_fixed(stall_ratio, 5),
                   format_fixed(induced, 2) + "x"});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
