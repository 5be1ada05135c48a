#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "exp/campaign.hh"
#include "exp/insitu.hh"
#include "net/trace_file.hh"
#include "test_helpers.hh"
#include "util/require.hh"

namespace puffer::exp {
namespace {

fugu::TtpConfig tiny_ttp() {
  fugu::TtpConfig config;
  config.history = 4;
  config.hidden_layers = {16};
  config.horizon = 1;
  return config;
}

fugu::TtpTrainConfig tiny_train() {
  fugu::TtpTrainConfig config;
  config.epochs = 1;
  config.batch_size = 64;
  config.max_examples_per_step = 800;
  return config;
}

CampaignArm classical_arm(const std::string& name, const std::string& scheme) {
  CampaignArm arm;
  arm.name = name;
  arm.scheme = scheme;
  return arm;
}

CampaignArm learner_arm(const std::string& name, const bool warm_start) {
  CampaignArm arm;
  arm.name = name;
  arm.scheme = "Fugu";
  arm.retrain = true;
  arm.warm_start = warm_start;
  arm.ttp = tiny_ttp();
  arm.train = tiny_train();
  return arm;
}

/// Three arms — a static classical baseline plus a warm-started and a
/// cold-restarted nightly learner — over three deployment days. Small enough
/// that the whole-campaign fixture below runs in a few seconds, rich enough
/// to exercise telemetry sharing, nightly retrains, and TTP evaluation.
CampaignConfig tiny_config() {
  CampaignConfig config;
  config.arms = {classical_arm("bba", "BBA"),
                 learner_arm("fugu-warm", /*warm_start=*/true),
                 learner_arm("fugu-cold", /*warm_start=*/false)};
  config.phases = {CampaignPhase{net::ScenarioSpec{"puffer"}, 3}};
  config.telemetry_sessions_per_day = 9;
  config.eval_sessions_per_day = 6;
  config.holdout_sessions_per_day = 6;
  config.seed = 11;
  config.num_threads = 4;
  // Pareto-tail viewers can watch for hours; cap each stream's simulation
  // budget so the fixture stays in tier-1's time box.
  config.stream.max_stream_chunks = 100;
  return config;
}

/// The campaign is a pure function of its config, so every test that only
/// reads the uninterrupted reference run shares this single execution.
struct SharedCampaign {
  Campaign campaign;
  CampaignResult result;
};

const SharedCampaign& shared_campaign() {
  static SharedCampaign* shared = [] {
    auto* s = new SharedCampaign{Campaign{tiny_config()}, CampaignResult{}};
    s->result = s->campaign.run();
    return s;
  }();
  return *shared;
}

/// The serialized bytes of an arm's deployed TTP (every step network).
std::string deployed_bytes(const Campaign& campaign, const std::string& arm) {
  std::ostringstream bytes;
  save_ttp(*campaign.deployed_model(arm), bytes);
  return bytes.str();
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Campaign, RunsEveryDayWithEveryArm) {
  const CampaignResult& result = shared_campaign().result;
  ASSERT_EQ(result.days.size(), 3u);
  EXPECT_EQ(result.restored_days, 0);
  for (size_t d = 0; d < result.days.size(); d++) {
    const DayStats& day = result.days[d];
    EXPECT_EQ(day.day, static_cast<int>(d));
    EXPECT_EQ(day.scenario, "puffer:");
    EXPECT_GT(day.telemetry_streams, 0u);
    EXPECT_GT(day.telemetry_chunks, 0u);
    ASSERT_EQ(day.arms.size(), 3u);
    EXPECT_EQ(day.arms[0].arm, "bba");
    EXPECT_EQ(day.arms[1].arm, "fugu-warm");
    EXPECT_EQ(day.arms[2].arm, "fugu-cold");
    for (const ArmDayStats& arm : day.arms) {
      EXPECT_EQ(arm.sessions, 6) << arm.arm;
      EXPECT_GT(arm.considered, 0) << arm.arm << " day " << d;
      EXPECT_GT(arm.ssim_mean_db, 0.0) << arm.arm << " day " << d;
      EXPECT_GE(arm.stall_ratio, 0.0);
    }
    // The classical baseline carries no model; both learners deploy one
    // from day 0 (cold random weights) and report held-out cross-entropy.
    EXPECT_FALSE(day.arms[0].has_model);
    for (size_t a : {size_t{1}, size_t{2}}) {
      EXPECT_TRUE(day.arms[a].has_model);
      EXPECT_GT(day.arms[a].cross_entropy, 0.0) << "day " << d;
      EXPECT_GT(day.arms[a].holdout_examples, 0u) << "day " << d;
    }
  }
}

TEST(Campaign, LearnersImproveOnColdStart) {
  // Figure 9's shape: day 0 streams with untrained random weights; by the
  // last day the nightly loop has trained on real telemetry, so held-out
  // cross-entropy must have dropped decisively for both learners.
  const CampaignResult& result = shared_campaign().result;
  const DayStats& first = result.days.front();
  const DayStats& last = result.days.back();
  EXPECT_LT(last.arms[1].cross_entropy, first.arms[1].cross_entropy);
  EXPECT_LT(last.arms[2].cross_entropy, first.arms[2].cross_entropy);
}

TEST(Campaign, WarmStartLowersCrossEntropyVsColdRestart) {
  // The warm-started learner accumulates optimization across days; the
  // cold-restart arm re-initializes every night and sees each example once.
  // By the final day the warm arm must be strictly ahead on held-out
  // cross-entropy (same telemetry, same holdout, same architecture).
  const CampaignResult& result = shared_campaign().result;
  const DayStats& last = result.days.back();
  ASSERT_EQ(last.arms[1].arm, "fugu-warm");
  ASSERT_EQ(last.arms[2].arm, "fugu-cold");
  EXPECT_LT(last.arms[1].cross_entropy, last.arms[2].cross_entropy);
}

TEST(Campaign, BitIdenticalAtOneThreadAndAcrossObjectContinuation) {
  // Same seed, 1 worker thread, and the day loop split across two run()
  // calls on one object: per-day stats must be bit-identical to the shared
  // 4-thread uninterrupted run (operator== compares doubles exactly).
  CampaignConfig config = tiny_config();
  config.num_threads = 1;
  Campaign campaign{config};
  const CampaignResult partial = campaign.run(/*max_days=*/1);
  EXPECT_EQ(partial.days.size(), 1u);
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.days, shared_campaign().result.days);
  for (const std::string arm : {"fugu-warm", "fugu-cold"}) {
    EXPECT_EQ(deployed_bytes(campaign, arm),
              deployed_bytes(shared_campaign().campaign, arm))
        << arm;
  }
}

/// A learner with the paper's five step networks, one day, at several
/// thread counts: the nightly retrain deploys the same bytes at each.
TEST(Campaign, FullHorizonRetrainDeploysTheSameModelAtAnyThreadCount) {
  CampaignConfig config = tiny_config();
  config.arms = {learner_arm("fugu", /*warm_start=*/false)};
  config.arms[0].ttp.horizon = 5;
  config.phases = {CampaignPhase{net::ScenarioSpec{"puffer"}, 1}};
  const auto run_at = [&](const int threads) {
    config.num_threads = threads;
    Campaign campaign{config};
    return std::pair{campaign.run().days, deployed_bytes(campaign, "fugu")};
  };
  const auto serial = run_at(1);
  for (const int threads : {2, 3, 4, 8}) {
    const auto parallel = run_at(threads);
    EXPECT_EQ(parallel.first, serial.first) << threads << " threads";
    EXPECT_EQ(parallel.second, serial.second) << threads << " threads";
  }
}

/// One faulted day whose retrain crashes leave the warm learner trained on
/// its first retry and the cold learner degraded: at 1 and 4 threads it
/// gives the same day record, deployed bytes and metrics.
TEST(Campaign, FaultedRetrainDayIsTheSameAtAnyThreadCount) {
  CampaignConfig config = tiny_config();
  config.phases = {CampaignPhase{net::ScenarioSpec{"puffer"}, 1}};
  config.faults.enabled = true;
  config.faults.add(sim::kFaultRetrainCrash, 0.5);
  // The first fault seed whose day-0 draws crash fugu-warm (arm 1) once
  // and every attempt of fugu-cold (arm 2).
  const auto crashes = [&config](const uint64_t arm, const uint64_t attempt) {
    return config.faults.draw(sim::kFaultRetrainCrash, {0, arm, attempt});
  };
  for (config.faults.seed = 0; config.faults.seed < 1000;
       config.faults.seed++) {
    if (crashes(1, 0) && !crashes(1, 1) && crashes(2, 0) && crashes(2, 1) &&
        crashes(2, 2)) {
      break;
    }
  }
  ASSERT_LT(config.faults.seed, 1000u);

  const auto run_at = [&config](const int threads) {
    config.num_threads = threads;
    Campaign campaign{config};
    const CampaignResult result = campaign.run();
    return std::tuple{result.days, deployed_bytes(campaign, "fugu-warm"),
                      deployed_bytes(campaign, "fugu-cold"),
                      campaign.metrics().to_json()};
  };
  const auto serial = run_at(1);
  const DayStats& day = std::get<0>(serial).front();
  EXPECT_TRUE(day.degraded);
  EXPECT_EQ(day.arms[1].retrain_crashes, 1);
  EXPECT_FALSE(day.arms[1].degraded);
  EXPECT_EQ(day.arms[2].retrain_crashes, 3);
  EXPECT_TRUE(day.arms[2].degraded);
  EXPECT_EQ(run_at(4), serial);
}

TEST(Campaign, ResumeAfterKillIsBitIdenticalAtTwoThreads) {
  // "Kill" the campaign after day 2 (the first object is destroyed with its
  // checkpoint on disk), then resume from the checkpoint with a fresh
  // object. The resumed run must restore exactly 2 days and the full
  // history must be bit-identical to the uninterrupted 4-thread reference —
  // which also proves thread-count invariance at 2 workers.
  CampaignConfig config = tiny_config();
  config.num_threads = 2;
  config.checkpoint_dir = fresh_dir("campaign_resume");
  {
    Campaign killed{config};
    const CampaignResult before = killed.run(/*max_days=*/2);
    EXPECT_EQ(before.days.size(), 2u);
  }
  Campaign resumed{config};
  EXPECT_EQ(resumed.completed_days(), 2);  // restored at construction
  const CampaignResult result = resumed.run();
  EXPECT_EQ(result.restored_days, 2);
  EXPECT_EQ(result.days, shared_campaign().result.days);

  // Re-running the finished campaign restores everything and simulates
  // nothing new.
  Campaign finished{config};
  EXPECT_NE(finished.deployed_model("fugu-warm"), nullptr);
  const CampaignResult again = finished.run();
  EXPECT_EQ(again.restored_days, 3);
  EXPECT_EQ(again.days, shared_campaign().result.days);
  EXPECT_EQ(deployed_bytes(finished, "fugu-warm"),
            deployed_bytes(shared_campaign().campaign, "fugu-warm"));

  // The checkpoint encodes the campaign's fingerprint: a different
  // configuration must refuse to adopt this directory, at construction.
  CampaignConfig foreign = config;
  foreign.seed = 999;
  EXPECT_THROW(Campaign{foreign}, RequirementError);
}

TEST(Campaign, CorruptCheckpointIsAnErrorNotARestart) {
  CampaignConfig config = tiny_config();
  config.checkpoint_dir = fresh_dir("campaign_corrupt");
  std::filesystem::create_directories(config.checkpoint_dir);
  std::ofstream out{config.checkpoint_dir + "/campaign.ckpt",
                    std::ios::binary};
  out << "this is not a campaign checkpoint";
  out.close();
  EXPECT_THROW(Campaign{config}, RequirementError);
}

TEST(Campaign, TraceEditedInPlaceRefusesTheCheckpoint) {
  // The checkpoint names a trace-replay phase by what its file contains: a
  // trace regenerated in place must not resume days simulated over the old
  // one.
  const std::string dir = fresh_dir("campaign_trace_edit");
  std::filesystem::create_directories(dir);
  const std::string trace = dir + "/phase.trace";
  const auto write_trace = [&trace](const double mbps) {
    const net::ThroughputTrace capacity{{mbps * 1e6 / 8.0, mbps * 1e6 / 8.0},
                                        1.0};
    net::TraceFile::from_trace(capacity).save(trace);
  };
  write_trace(8.0);
  CampaignConfig config = tiny_config();
  config.arms = {classical_arm("bba", "BBA")};
  config.phases = {CampaignPhase{net::ScenarioSpec{"trace-replay", trace}, 2}};
  config.checkpoint_dir = dir + "/ckpt";
  Campaign{config}.run(/*max_days=*/1);

  // Unchanged file: the day restores.
  EXPECT_EQ(Campaign{config}.run(/*max_days=*/1).restored_days, 1);
  // Rewritten file: the checkpoint belongs to a different campaign.
  write_trace(4.0);
  EXPECT_THROW(Campaign{config}, RequirementError);
}

TEST(Campaign, ScenarioShiftAdaptsTheLearner) {
  // Mid-campaign workload shift: one day of deployment-like paths, then the
  // world becomes an LTE cellular channel. On the first cellular day the
  // learner still streams with the puffer-trained model; after one nightly
  // retrain on cellular telemetry its held-out cross-entropy on the new
  // world must improve.
  CampaignConfig config;
  config.arms = {learner_arm("fugu", /*warm_start=*/true)};
  config.phases = {CampaignPhase{net::ScenarioSpec{"puffer"}, 1},
                   CampaignPhase{net::ScenarioSpec{"cellular"}, 2}};
  config.telemetry_sessions_per_day = 9;
  config.eval_sessions_per_day = 6;
  config.holdout_sessions_per_day = 6;
  config.seed = 21;
  config.num_threads = 4;
  config.stream.max_stream_chunks = 100;

  Campaign campaign{config};
  const CampaignResult result = campaign.run();
  ASSERT_EQ(result.days.size(), 3u);
  EXPECT_EQ(result.days[0].scenario, "puffer:");
  EXPECT_EQ(result.days[1].scenario, "cellular:");
  EXPECT_EQ(result.days[2].scenario, "cellular:");
  const double stale_ce = result.days[1].arms[0].cross_entropy;
  const double adapted_ce = result.days[2].arms[0].cross_entropy;
  ASSERT_GT(stale_ce, 0.0);
  ASSERT_GT(adapted_ce, 0.0);
  EXPECT_LT(adapted_ce, stale_ce);
}

TEST(Campaign, DeployedModelAccessor) {
  const SharedCampaign& shared = shared_campaign();
  EXPECT_EQ(shared.campaign.deployed_model("bba"), nullptr);
  EXPECT_NE(shared.campaign.deployed_model("fugu-warm"), nullptr);
  EXPECT_NE(shared.campaign.deployed_model("fugu-cold"), nullptr);
  EXPECT_THROW(
      static_cast<void>(shared.campaign.deployed_model("no-such-arm")),
      RequirementError);
}

TEST(Campaign, ReportsCoverEveryArmDay) {
  const CampaignResult& result = shared_campaign().result;
  const std::string csv = campaign_report_csv(result.days);
  // Header + 3 days x 3 arms.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 10);
  EXPECT_NE(csv.find("day,scenario,arm,scheme"), std::string::npos);
  EXPECT_NE(csv.find("fugu-warm"), std::string::npos);

  const std::string json = campaign_report_json(result.days);
  EXPECT_NE(json.find("\"day\":2"), std::string::npos);
  EXPECT_NE(json.find("\"arm\":\"fugu-cold\""), std::string::npos);
  EXPECT_NE(json.find("\"has_model\":false"), std::string::npos);
  EXPECT_NE(json.find("\"cross_entropy\":"), std::string::npos);
}

TEST(Campaign, CsvQuotesScenarioKeysWithCommas) {
  // Scenario keys embed arbitrary trace paths; a comma must not shift the
  // CSV columns.
  DayStats day;
  day.day = 0;
  day.scenario = "trace-replay:/data/a,b.trace";
  day.arms.push_back(ArmDayStats{});
  day.arms[0].arm = "fugu";
  day.arms[0].scheme = "Fugu";
  const std::string csv = campaign_report_csv({day});
  EXPECT_NE(csv.find("\"trace-replay:/data/a,b.trace\""), std::string::npos);
  // Both rows (header + one arm-day) parse to the same field count.
  const auto fields = [](const std::string& line) {
    size_t count = 1;
    bool quoted = false;
    for (const char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) count++;
    }
    return count;
  };
  const size_t newline = csv.find('\n');
  const std::string header = csv.substr(0, newline);
  const std::string row =
      csv.substr(newline + 1, csv.find('\n', newline + 1) - newline - 1);
  EXPECT_EQ(fields(header), fields(row));
}

TEST(Campaign, ValidationRejectsBadConfigs) {
  {
    CampaignConfig config = tiny_config();
    config.arms.clear();
    EXPECT_THROW(Campaign{config}, RequirementError);
  }
  {
    CampaignConfig config = tiny_config();
    config.arms[2].name = config.arms[1].name;  // duplicate
    EXPECT_THROW(Campaign{config}, RequirementError);
  }
  {
    CampaignConfig config = tiny_config();
    config.arms[0].scheme = "HAL9000";
    EXPECT_THROW(Campaign{config}, RequirementError);
  }
  {
    CampaignConfig config = tiny_config();
    config.phases[0].scenario.family = "not-a-family";
    EXPECT_THROW(Campaign{config}, RequirementError);
  }
  {
    // "Fugu" without retrain has no TTP to stream with — caught up front.
    CampaignConfig config = tiny_config();
    config.arms[1].retrain = false;
    EXPECT_THROW(Campaign{config}, RequirementError);
  }
  {
    CampaignConfig config = tiny_config();
    config.phases[0].days = 0;
    EXPECT_THROW(Campaign{config}, RequirementError);
  }
  // A retrain arm's training values are checked up front, naming the arm
  // and the field, not at the first night's retrain.
  {
    CampaignConfig config = tiny_config();
    config.arms[1].train.window_days = 0;
    test::expect_rejected([&] { Campaign{config}; },
                          {"fugu-warm", "window_days"});
  }
  {
    CampaignConfig config = tiny_config();
    config.arms[2].train.epochs = -1;
    test::expect_rejected([&] { Campaign{config}; }, {"fugu-cold", "epochs"});
  }
}

TEST(Campaign, FingerprintTracksIdentityKnobsOnly) {
  const CampaignConfig base = tiny_config();
  CampaignConfig threads = base;
  threads.num_threads = 1;
  threads.checkpoint_dir = "/somewhere/else";
  EXPECT_EQ(base.fingerprint(), threads.fingerprint());

  CampaignConfig seed = base;
  seed.seed = 12;
  EXPECT_NE(base.fingerprint(), seed.fingerprint());

  CampaignConfig phase = base;
  phase.phases.push_back(CampaignPhase{net::ScenarioSpec{"cellular"}, 1});
  EXPECT_NE(base.fingerprint(), phase.fingerprint());

  CampaignConfig arm = base;
  arm.arms[1].train.epochs = 2;
  EXPECT_NE(base.fingerprint(), arm.fingerprint());
}

/// The fingerprint names every checkpoint on disk, so its canonical string
/// must not drift: these values pin the default config and one with the
/// fault plane enabled (which adds the fault and resilience terms).
TEST(Campaign, FingerprintIsPinned) {
  EXPECT_EQ(CampaignConfig{}.fingerprint(), 14730459082425319125ULL);

  CampaignConfig faulted = tiny_config();
  faulted.faults.enabled = true;
  faulted.faults.seed = 99;
  faulted.faults.add(sim::kFaultRetrainCrash, 0.5);
  faulted.faults.add(sim::kFaultCheckpointLoad, 0.25);
  EXPECT_EQ(faulted.fingerprint(), 341523930490714578ULL);
}

}  // namespace
}  // namespace puffer::exp
