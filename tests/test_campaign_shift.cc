// Multi-day scenario-shift campaign at a heavier scale than test_campaign:
// three days of deployment-like paths, then three days on an LTE cellular
// channel. Labelled `tier1` and `slow`.

#include <gtest/gtest.h>

#include "exp/campaign.hh"

namespace puffer::exp {
namespace {

CampaignConfig shift_config() {
  fugu::TtpConfig ttp;
  ttp.hidden_layers = {32, 32};
  ttp.horizon = 2;
  fugu::TtpTrainConfig train;
  train.epochs = 2;
  train.batch_size = 128;
  train.max_examples_per_step = 4000;

  CampaignArm fugu;
  fugu.name = "fugu-daily";
  fugu.scheme = "Fugu";
  fugu.retrain = true;
  fugu.ttp = ttp;
  fugu.train = train;
  CampaignArm mpc;
  mpc.name = "mpc";
  mpc.scheme = "MPC-HM";

  CampaignConfig config;
  config.arms = {fugu, mpc};
  config.phases = {CampaignPhase{net::ScenarioSpec{"puffer"}, 3},
                   CampaignPhase{net::ScenarioSpec{"cellular"}, 3}};
  config.telemetry_sessions_per_day = 24;
  config.eval_sessions_per_day = 15;
  config.holdout_sessions_per_day = 9;
  config.seed = 5;
  config.stream.max_stream_chunks = 400;
  return config;
}

TEST(CampaignShift, LearnerTracksTheWorkloadAcrossTheShift) {
  Campaign campaign{shift_config()};
  const CampaignResult result = campaign.run();
  ASSERT_EQ(result.days.size(), 6u);
  for (int d = 0; d < 6; d++) {
    EXPECT_EQ(result.days[static_cast<size_t>(d)].scenario,
              d < 3 ? "puffer:" : "cellular:");
    const ArmDayStats& fugu = result.days[static_cast<size_t>(d)].arms[0];
    ASSERT_EQ(fugu.arm, "fugu-daily");
    EXPECT_GT(fugu.considered, 0) << "day " << d;
    EXPECT_GT(fugu.cross_entropy, 0.0) << "day " << d;
  }

  // Within the first phase the nightly loop must learn the deployment
  // world: held-out cross-entropy drops from the untrained day 0 to day 2.
  const double day0_ce = result.days[0].arms[0].cross_entropy;
  const double day2_ce = result.days[2].arms[0].cross_entropy;
  EXPECT_LT(day2_ce, day0_ce);

  // Day 3 streams the cellular world with a puffer-trained model; after
  // retraining on cellular telemetry the learner must fit the new world
  // better than it did when the shift hit (both measured on cellular
  // holdouts).
  const double shift_ce = result.days[3].arms[0].cross_entropy;
  const double adapted_ce = result.days[5].arms[0].cross_entropy;
  EXPECT_LT(adapted_ce, shift_ce);

  // The static MPC arm never carries a model.
  for (const DayStats& day : result.days) {
    EXPECT_FALSE(day.arms[1].has_model);
  }
}

}  // namespace
}  // namespace puffer::exp
