#include <gtest/gtest.h>

#include <cmath>

#include "abr/pensieve.hh"
#include "abr/pensieve_env.hh"
#include "abr/pensieve_trainer.hh"
#include "test_helpers.hh"
#include "util/require.hh"

namespace puffer::abr {
namespace {

using test::make_lookahead;

TEST(PensieveState, DimensionAndPadding) {
  PensieveHistory history;
  const auto menu = test::make_menu(0);
  const std::vector<float> state = pensieve_state(history, 5.0, menu);
  ASSERT_EQ(state.size(), static_cast<size_t>(kPensieveStateDim));
  // Empty history: throughput/download-time slots are zero-padded.
  for (int i = 2; i < 2 + 2 * kPensieveHistory; i++) {
    EXPECT_FLOAT_EQ(state[static_cast<size_t>(i)], 0.0f);
  }
  // Buffer normalized by 10 s.
  EXPECT_FLOAT_EQ(state[1], 0.5f);
}

TEST(PensieveState, HistoryOrderingNewestLast) {
  PensieveHistory history;
  history.record(10.0, 1.0, 2);
  history.record(20.0, 2.0, 3);
  const auto menu = test::make_menu(0);
  const std::vector<float> state = pensieve_state(history, 0.0, menu);
  // Throughput slots are the 8 entries starting at index 2; the last two
  // hold 10/20 and 20/20 Mbps (normalized /20), oldest first.
  EXPECT_FLOAT_EQ(state[2 + kPensieveHistory - 2], 0.5f);
  EXPECT_FLOAT_EQ(state[2 + kPensieveHistory - 1], 1.0f);
  // Download-time slots follow, normalized /10.
  EXPECT_FLOAT_EQ(state[2 + 2 * kPensieveHistory - 2], 0.1f);
  EXPECT_FLOAT_EQ(state[2 + 2 * kPensieveHistory - 1], 0.2f);
}

TEST(PensieveState, HistoryBounded) {
  PensieveHistory history;
  for (int i = 0; i < 30; i++) {
    history.record(1.0, 1.0, 1);
  }
  EXPECT_EQ(history.throughputs_mbps.size(),
            static_cast<size_t>(kPensieveHistory));
}

TEST(PensieveState, NextChunkSizesInMb) {
  PensieveHistory history;
  const auto menu = test::make_menu(0);
  const std::vector<float> state = pensieve_state(history, 0.0, menu);
  const size_t sizes_offset = 2 + 2 * kPensieveHistory;
  for (int r = 0; r < media::kNumRungs; r++) {
    EXPECT_NEAR(state[sizes_offset + static_cast<size_t>(r)],
                static_cast<double>(menu.version(r).size_bytes) / 1e6, 1e-5);
  }
}

TEST(PensieveAbr, GreedyActionFollowsActor) {
  nn::Mlp actor = make_pensieve_actor(7);
  // Bias the last output so that rung 4 always wins.
  actor.update([](auto& /*weights*/, auto& biases) {
    for (auto& b : biases.back()) {
      b = 0.0f;
    }
    biases.back()[4] = 100.0f;
  });
  PensieveAbr abr{actor};
  AbrObservation obs;
  obs.buffer_s = 5.0;
  EXPECT_EQ(abr.choose_rung(obs, make_lookahead(1)), 4);
}

TEST(PensieveAbr, RejectsWrongArchitecture) {
  EXPECT_THROW(PensieveAbr(nn::Mlp{{3, 4}, 1}), RequirementError);
}

TEST(PensieveEnv, ResetGivesInitialState) {
  PensieveEnv env{{}, 11};
  const auto state = env.reset();
  EXPECT_EQ(state.size(), static_cast<size_t>(kPensieveStateDim));
}

TEST(PensieveEnv, EpisodeTerminatesAtConfiguredLength) {
  PensieveEnvConfig config;
  config.chunks_per_episode = 25;
  PensieveEnv env{config, 12};
  env.reset();
  int steps = 0;
  bool done = false;
  while (!done) {
    const auto result = env.step(0);
    done = result.done;
    steps++;
    ASSERT_LE(steps, 25);
  }
  EXPECT_EQ(steps, 25);
}

TEST(PensieveEnv, LowestRungRarelyStallsOnFccTraces) {
  PensieveEnv env{{}, 13};
  double stall = 0.0;
  for (int e = 0; e < 5; e++) {
    env.reset();
    bool done = false;
    while (!done) {
      const auto result = env.step(0);  // 200 kbps on >= 200 kbps traces
      stall += result.stall_s;
      done = result.done;
    }
  }
  EXPECT_LT(stall, 10.0);
}

TEST(PensieveEnv, TopRungStallsOnSlowTraces) {
  PensieveEnvConfig config;
  config.chunks_per_episode = 60;
  config.trace = net::FccTraceModel{};  // the fcc-emulation family's traces
  PensieveEnv env{config, 14};
  double stall = 0.0;
  for (int e = 0; e < 10; e++) {
    env.reset();
    bool done = false;
    while (!done) {
      const auto result = env.step(media::kNumRungs - 1);  // 5.5 Mbps
      stall += result.stall_s;
      done = result.done;
    }
  }
  // FCC traces have median ~2.6 Mbit/s: the top rung cannot be sustained.
  EXPECT_GT(stall, 20.0);
}

TEST(PensieveEnv, RewardPenalizesSwitching) {
  // Cheap rungs on a comfortable trace: no stalls, so the reward difference
  // is purely bitrate and smoothness.
  PensieveEnvConfig config;
  config.trace = net::FccTraceModel{/*median_rate_mbps=*/6.0,
                                    /*log10_rate_sigma=*/0.02};
  PensieveEnv env{config, 15};
  env.reset();
  env.step(2);
  const auto steady = env.step(2);
  // Re-create the env deterministically to replay with a switching policy.
  PensieveEnv env2{config, 15};
  env2.reset();
  env2.step(2);
  const auto switched = env2.step(1);
  EXPECT_DOUBLE_EQ(steady.reward, 0.7);                // bitrate only
  EXPECT_NEAR(switched.reward, 0.4 - 0.3, 1e-9);       // bitrate - |switch|
  EXPECT_LT(switched.reward, steady.reward);
}

TEST(PensieveEnv, DownloadTimeScalesWithSize) {
  PensieveEnv env{{}, 16};
  env.reset();
  const auto small = env.step(0);
  PensieveEnv env2{{}, 16};
  env2.reset();
  const auto big = env2.step(media::kNumRungs - 1);
  EXPECT_GT(big.download_time_s, small.download_time_s);
}

TEST(PensieveTrainer, ImprovesRewardOverTraining) {
  // Train on traces whose base rates barely spread around 3 Mbit/s so that
  // the learning signal is visible through episode-to-episode variance.
  PensieveTrainConfig config;
  config.iterations = 80;
  config.episodes_per_iteration = 6;
  config.env.chunks_per_episode = 60;
  config.env.trace = net::FccTraceModel{/*median_rate_mbps=*/3.0,
                                        /*log10_rate_sigma=*/0.03};
  PensieveTrainReport report;
  train_pensieve(config, 99, &report);
  ASSERT_EQ(report.reward_per_iteration.size(), 80u);
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 20; i++) {
    early += report.reward_per_iteration[static_cast<size_t>(i)];
    late += report.reward_per_iteration[report.reward_per_iteration.size() -
                                        1 - static_cast<size_t>(i)];
  }
  EXPECT_GT(late, early);
}

TEST(PensieveTrainer, DeterministicGivenSeed) {
  PensieveTrainConfig config;
  config.iterations = 3;
  config.episodes_per_iteration = 2;
  config.env.chunks_per_episode = 20;
  const nn::Mlp a = train_pensieve(config, 5);
  const nn::Mlp b = train_pensieve(config, 5);
  EXPECT_EQ(a, b);
  // The trained actor itself, bit for bit: a moved training constant
  // (discount, learning rates, entropy schedule, clip, reward weights)
  // changes this hash.
  EXPECT_EQ(test::mlp_hash(a), 17675066593526069902ULL);
}

TEST(PensieveTrainer, RejectsUnrunnableConfigs) {
  // Unchecked, an empty batch trains to a NaN reward and an empty episode
  // passes silently.
  PensieveTrainConfig config;
  config.iterations = 1;
  config.episodes_per_iteration = 0;
  test::expect_rejected(
      [&] { static_cast<void>(train_pensieve(config, 5)); },
      {"episodes_per_iteration"});
  config.episodes_per_iteration = 1;
  config.env.chunks_per_episode = 0;
  test::expect_rejected(
      [&] { static_cast<void>(train_pensieve(config, 5)); },
      {"chunks_per_episode"});
  test::expect_rejected([&] { PensieveEnv env{config.env, 1}; },
                        {"chunks_per_episode"});
}

TEST(PensieveTrainer, TrainedPolicyBeatsBitrateExtremesOnFcc) {
  // A modest training run should already dominate the fixed extreme
  // policies (always-lowest wastes bitrate reward; always-highest stalls).
  // The production training budget (the same configuration the cached
  // experiment artifact uses): at this depth the policy is adaptive rather
  // than collapsed to a fixed rung.
  PensieveTrainConfig config;
  config.env.chunks_per_episode = 80;
  const nn::Mlp actor = train_pensieve(config, 7);

  auto evaluate = [&](const std::function<int(const std::vector<float>&)>& policy) {
    PensieveEnv env{config.env, 1234};
    double total = 0.0;
    for (int e = 0; e < 12; e++) {
      std::vector<float> state = env.reset();
      bool done = false;
      while (!done) {
        auto result = env.step(policy(state));
        total += result.reward;
        state = std::move(result.next_state);
        done = result.done;
      }
    }
    return total;
  };

  const double trained = evaluate([&actor](const std::vector<float>& s) {
    const auto logits = actor.forward_one(s);
    return static_cast<int>(std::max_element(logits.begin(), logits.end()) -
                            logits.begin());
  });
  const double always_low = evaluate([](const std::vector<float>&) { return 0; });
  const double always_high = evaluate(
      [](const std::vector<float>&) { return media::kNumRungs - 1; });

  EXPECT_GT(trained, always_low);
  EXPECT_GT(trained, always_high);
}

}  // namespace
}  // namespace puffer::abr
