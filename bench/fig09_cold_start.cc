// Figure 9: cold start. Fugu launched with an untrained model and improved
// over the first several days in deployment as the nightly in-situ loop
// (collect telemetry -> retrain with warm start -> redeploy) accumulated
// data. This bench is a thin client of exp::Campaign: one retraining Fugu
// arm against a static BBA baseline, one day at a time, with the campaign
// checkpoint making reruns resume instead of recompute.
//
//   PUFFER_CAMPAIGN_DAYS     days to simulate (default 5)
//   PUFFER_BENCH_SESSIONS    telemetry sessions per day (default 96)

#include <cstdio>

#include "bench_common.hh"
#include "exp/campaign.hh"
#include "util/table.hh"

int main() {
  using namespace puffer;

  // Default 5 days; an explicit 1 is raised to 2 (the shape check needs a
  // before and after).
  const int days =
      std::max(2, bench::positive_env_int("PUFFER_CAMPAIGN_DAYS", 5));

  exp::CampaignArm fugu;
  fugu.name = "fugu-insitu";
  fugu.scheme = "Fugu";
  fugu.retrain = true;  // the paper's nightly warm-started retrain
  fugu.train.epochs = 2;
  fugu.train.max_examples_per_step = 20000;
  exp::CampaignArm bba;
  bba.name = "bba";
  bba.scheme = "BBA";

  exp::CampaignConfig config;
  config.arms = {fugu, bba};
  config.phases = {exp::CampaignPhase{net::ScenarioSpec{"puffer"}, days}};
  config.telemetry_sessions_per_day = bench::sessions_per_scheme(96);
  config.eval_sessions_per_day =
      std::max(8, config.telemetry_sessions_per_day / 2);
  config.holdout_sessions_per_day =
      std::max(6, config.telemetry_sessions_per_day / 6);
  config.seed = 20190126;  // Fugu's launch date (Figure 9)
  config.stream.max_stream_chunks = 1000;
  config.checkpoint_dir = exp::model_cache_dir() + "/campaign_fig09_" +
                          std::to_string(config.fingerprint());

  std::printf("[setup] cold-start campaign: %d days x %d telemetry sessions "
              "(checkpointed in %s)\n\n",
              days, config.telemetry_sessions_per_day,
              config.checkpoint_dir.c_str());

  exp::Campaign campaign{config};
  const exp::CampaignResult result = campaign.run();
  if (result.restored_days > 0) {
    std::printf("[resume] restored %d completed day(s) from the checkpoint\n\n",
                result.restored_days);
  }

  Table table{{"Day", "Fugu SSIM (dB)", "Fugu stall %", "TTP CE (nats)",
               "TTP top-1 %", "BBA SSIM (dB)"}};
  for (const exp::DayStats& day : result.days) {
    const exp::ArmDayStats& f = day.arms[0];
    const exp::ArmDayStats& b = day.arms[1];
    table.add_row({std::to_string(day.day), format_fixed(f.ssim_mean_db, 2),
                   format_percent(f.stall_ratio, 2),
                   format_fixed(f.cross_entropy, 3),
                   format_fixed(100.0 * f.top1_accuracy, 1),
                   format_fixed(b.ssim_mean_db, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Day 0 streams with random weights; the last day's model has seen every
  // prior day's telemetry. The paper's cold-start shape: prediction quality
  // (and with it QoE) improves over the first days.
  const double first_ce = result.days.front().arms[0].cross_entropy;
  const double last_ce = result.days.back().arms[0].cross_entropy;
  const bool holds = last_ce < first_ce;
  std::printf("Shape check vs paper: in-situ learning lowers held-out TTP "
              "cross-entropy over the first days (%.3f -> %.3f nats): %s\n",
              first_ce, last_ce, holds ? "holds" : "VIOLATED");
  std::printf("(uniform baseline over 21 bins would be ln 21 = 3.04 nats)\n");
  return holds ? 0 : 1;
}
