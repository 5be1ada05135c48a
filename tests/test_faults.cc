// Chaos suite for the deterministic fault-injection plane: FaultPlan draw
// semantics, ResilientPredictor's degradation ladder, campaign-layer
// graceful degradation (retrain crashes, checkpoint/model load faults,
// telemetry loss), and the bitwise shard×thread invariance contract with
// faults ENABLED — the fault schedule must be a pure function of the plan
// seed and stable keys, never of the partitioning.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "abr/mpc_abr.hh"
#include "abr/throughput_predictors.hh"
#include "exp/campaign.hh"
#include "exp/fleet_trial.hh"
#include "exp/registry.hh"
#include "fugu/batch_ttp.hh"
#include "fugu/fugu.hh"
#include "fugu/resilient.hh"
#include "obs/trace.hh"
#include "sim/faults.hh"
#include "test_helpers.hh"
#include "util/require.hh"
#include "util/rng.hh"

namespace puffer {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan semantics
// ---------------------------------------------------------------------------

TEST(FaultFamilies, TableHoldsEveryFamilySorted) {
  const auto& families = sim::kFaultFamilies;
  for (const std::string_view family :
       {sim::kFaultTtpInference, sim::kFaultSessionAbort,
        sim::kFaultTelemetryLoss, sim::kFaultTelemetryDup,
        sim::kFaultRetrainCrash, sim::kFaultCheckpointLoad,
        sim::kFaultModelLoad, sim::kFaultLinkOutage}) {
    EXPECT_NE(std::find(families.begin(), families.end(), family),
              families.end())
        << family;
    sim::FaultPlan plan;
    EXPECT_NO_THROW(plan.add(family, 0.5)) << family;
  }
  EXPECT_EQ(families.size(), 8u);
  EXPECT_TRUE(std::is_sorted(families.begin(), families.end()));
}

TEST(FaultPlan, DrawIsAPureFunctionOfKeys) {
  sim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 42;
  plan.add(sim::kFaultRetrainCrash, 0.5);

  // Replays exactly, regardless of call order or interleaving.
  for (uint64_t day = 0; day < 20; day++) {
    for (uint64_t arm = 0; arm < 3; arm++) {
      const bool first = plan.draw(sim::kFaultRetrainCrash, {day, arm});
      const bool again = plan.draw(sim::kFaultRetrainCrash, {day, arm});
      EXPECT_EQ(first, again);
    }
  }
  // Key order matters (the keys are successive splits, not a bag).
  int diff = 0;
  for (uint64_t k = 0; k < 64; k++) {
    diff += plan.draw(sim::kFaultRetrainCrash, {k, 1}) !=
                    plan.draw(sim::kFaultRetrainCrash, {1, k})
                ? 1
                : 0;
  }
  EXPECT_GT(diff, 0);
  // The hit rate tracks the probability (loose bound; deterministic).
  int hits = 0;
  for (uint64_t k = 0; k < 1000; k++) {
    hits += plan.draw(sim::kFaultRetrainCrash, {k}) ? 1 : 0;
  }
  EXPECT_GT(hits, 350);
  EXPECT_LT(hits, 650);
}

TEST(FaultPlan, DisabledOrAbsentFamiliesNeverFire) {
  sim::FaultPlan plan;
  plan.enabled = false;
  plan.seed = 7;
  plan.add(sim::kFaultSessionAbort, 1.0);
  for (uint64_t k = 0; k < 50; k++) {
    EXPECT_FALSE(plan.draw(sim::kFaultSessionAbort, {k}));
  }
  EXPECT_EQ(plan.probability(sim::kFaultSessionAbort), 0.0);

  plan.enabled = true;
  EXPECT_EQ(plan.probability(sim::kFaultTtpInference), 0.0);  // absent
  for (uint64_t k = 0; k < 50; k++) {
    EXPECT_FALSE(plan.draw(sim::kFaultTtpInference, {k}));
  }
}

TEST(FaultPlan, UnknownFamilyRejectedNamingKnownOnes) {
  sim::FaultPlan plan;
  plan.enabled = true;
  try {
    plan.add("cosmic-rays", 0.5);
    FAIL() << "expected RequirementError";
  } catch (const RequirementError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("cosmic-rays"), std::string::npos);
    EXPECT_NE(message.find("retrain-crash"), std::string::npos);
  }
  EXPECT_THROW(plan.add(sim::kFaultSessionAbort, -0.1), RequirementError);
  EXPECT_THROW(plan.add(sim::kFaultSessionAbort, 1.5), RequirementError);
}

TEST(FaultPlan, Fingerprint) {
  sim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 9;
  plan.add(sim::kFaultTtpInference, 0.05);
  plan.add(sim::kFaultLinkOutage, 0.3, 30.0);
  EXPECT_DOUBLE_EQ(plan.probability(sim::kFaultTtpInference), 0.05);
  EXPECT_DOUBLE_EQ(plan.probability(sim::kFaultLinkOutage), 0.3);
  EXPECT_DOUBLE_EQ(plan.duration_s(sim::kFaultLinkOutage), 30.0);

  sim::FaultPlan other = plan;
  EXPECT_EQ(plan.fingerprint_key(), other.fingerprint_key());
  other.seed = 10;
  EXPECT_NE(plan.fingerprint_key(), other.fingerprint_key());
}

// ---------------------------------------------------------------------------
// ResilientPredictor degradation ladder
// ---------------------------------------------------------------------------

std::shared_ptr<const fugu::TtpModel> shared_model() {
  static const auto model =
      std::make_shared<const fugu::TtpModel>(fugu::TtpConfig{}, 20190119);
  return model;
}

abr::AbrObservation test_observation() {
  abr::AbrObservation obs;
  obs.buffer_s = 8.0;
  obs.tcp.cwnd_pkts = 80.0;
  obs.tcp.in_flight_pkts = 40.0;
  obs.tcp.min_rtt_s = 0.05;
  obs.tcp.srtt_s = 0.08;
  obs.tcp.delivery_rate_bps = 4e6;
  return obs;
}

abr::ChunkRecord test_chunk(const int i) {
  abr::ChunkRecord record;
  record.size_bytes = 500'000 + 40'000 * i;
  record.transmission_time_s = 0.4 + 0.07 * static_cast<double>(i % 5);
  return record;
}

TEST(ResilientPredictor, PassThroughUntilSessionBegins) {
  fugu::ResilientPredictor wrapper{
      std::make_unique<fugu::BatchTtpPredictor>(shared_model()),
      /*failure_probability=*/1.0, /*fault_seed=*/3};
  // No begin_session: even probability 1.0 must never fire.
  for (int i = 0; i < 5; i++) {
    wrapper.on_chunk_complete(test_chunk(i));
    wrapper.begin_decision(test_observation());
  }
  EXPECT_EQ(wrapper.session_stats().failures, 0);
  EXPECT_EQ(wrapper.session_stats().fallback_decisions, 0);
  EXPECT_FALSE(wrapper.degraded());
}

/// Degradation invariant: with inference permanently unavailable, every
/// decision is served, and served with exactly the bare harmonic-mean
/// predictor's distributions.
TEST(ResilientPredictor, FallbackMatchesBareHarmonicMean) {
  fugu::ResilientPredictor wrapper{
      std::make_unique<fugu::BatchTtpPredictor>(shared_model()),
      /*failure_probability=*/1.0, /*fault_seed=*/3};
  wrapper.begin_session(/*run_seed=*/99);
  abr::HarmonicMeanPredictor bare;
  bare.reset_session();

  for (int i = 0; i < 6; i++) {
    wrapper.on_chunk_complete(test_chunk(i));
    bare.on_chunk_complete(test_chunk(i));
    wrapper.begin_decision(test_observation());
    bare.begin_decision(test_observation());
    for (const int64_t size : {200'000, 900'000, 3'000'000}) {
      const abr::TxTimeDistribution expected = bare.predict(0, size);
      const abr::TxTimeDistribution got = wrapper.predict(0, size);
      ASSERT_EQ(expected.size(), got.size());
      for (size_t k = 0; k < expected.size(); k++) {
        EXPECT_EQ(std::bit_cast<uint64_t>(expected[k].time_s),
                  std::bit_cast<uint64_t>(got[k].time_s));
        EXPECT_EQ(std::bit_cast<uint64_t>(expected[k].probability),
                  std::bit_cast<uint64_t>(got[k].probability));
      }
    }
  }
  EXPECT_EQ(wrapper.session_stats().decisions, 6);
  EXPECT_EQ(wrapper.session_stats().failures, 6);
  EXPECT_EQ(wrapper.session_stats().fallback_decisions, 6);
}

/// Degradation invariant: the fallback engages (latches) within the failure
/// budget — after exactly kEngageAfterFailures consecutive failures.
TEST(ResilientPredictor, EngagesWithinConfiguredBudget) {
  constexpr int kBudget = fugu::ResilientPredictor::kEngageAfterFailures;
  fugu::ResilientPredictor wrapper{
      std::make_unique<fugu::BatchTtpPredictor>(shared_model()),
      /*failure_probability=*/1.0, /*fault_seed=*/3};
  wrapper.begin_session(/*run_seed=*/1);
  for (int i = 0; i < kBudget; i++) {
    EXPECT_FALSE(wrapper.degraded());
    wrapper.on_chunk_complete(test_chunk(i));
    wrapper.begin_decision(test_observation());
  }
  EXPECT_TRUE(wrapper.degraded());
  EXPECT_EQ(wrapper.session_stats().engagements, 1);
  // Every failed decision was still served by the fallback, engaged or not.
  EXPECT_EQ(wrapper.session_stats().fallback_decisions, kBudget);

  wrapper.reset_session();
  EXPECT_FALSE(wrapper.degraded());
  EXPECT_EQ(wrapper.session_stats().decisions, 0);
}

/// Property test: the accounting invariants hold for any seed.
TEST(ResilientPredictor, StatsInvariantsOverManySeeds) {
  for (uint64_t run_seed = 0; run_seed < 25; run_seed++) {
    fugu::ResilientPredictor wrapper{
        std::make_unique<fugu::BatchTtpPredictor>(shared_model()),
        /*failure_probability=*/0.4, /*fault_seed=*/11};
    wrapper.begin_session(run_seed);
    for (int i = 0; i < 40; i++) {
      wrapper.on_chunk_complete(test_chunk(i));
      wrapper.begin_decision(test_observation());
      static_cast<void>(wrapper.predict(0, 700'000));
    }
    const fugu::SessionFaultStats& stats = wrapper.session_stats();
    EXPECT_EQ(stats.decisions, 40);
    EXPECT_LE(stats.failures, stats.decisions);
    EXPECT_GE(stats.fallback_decisions, stats.failures);
    EXPECT_LE(stats.fallback_decisions, stats.decisions);
    if (stats.degraded) {
      EXPECT_GE(stats.engagements, 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-fault contract and the faulted shard×thread matrix
// ---------------------------------------------------------------------------

using test::expect_identical;
using test::expect_same_bits;
using test::metric_value;

const std::vector<std::string>& fault_metric_names() {
  static const std::vector<std::string> names = {
      "faults.injected",          "faults.ttp_decisions",
      "faults.ttp_failures",      "faults.ttp_fallback_decisions",
      "faults.ttp_engagements",   "faults.degraded_sessions",
      "faults.session_aborts",    "faults.link_outages",
      "faults.max_session_fallbacks"};
  return names;
}

exp::SchemeArtifacts fault_artifacts(const sim::FaultPlan* plan) {
  exp::SchemeArtifacts artifacts;
  artifacts.ttp_insitu = shared_model();
  artifacts.faults = plan;
  return artifacts;
}

exp::FleetTrialConfig small_fleet_config() {
  exp::FleetTrialConfig config;
  config.trial.schemes = {"Fugu", "MPC-HM", "BBA"};
  config.trial.sessions_per_scheme = 5;
  config.trial.seed = 20190119;
  config.trial.num_threads = 1;
  config.trial.stream.max_stream_chunks = 60;
  config.arrivals.kind = "poisson";
  config.arrivals.rate_per_s = 0.05;
  return config;
}

/// Zero-fault contract: a present-but-disabled FaultPlan produces results
/// bitwise identical to a factory that never heard of faults, across the
/// full shard matrix. (The golden-trial rows are covered by test_exp's
/// golden suite, which runs the unwired path.)
TEST(ZeroFault, DisabledPlanBitIdenticalToUnwiredFactory) {
  exp::FleetTrialConfig config = small_fleet_config();
  ASSERT_FALSE(config.trial.faults.enabled);

  const auto unwired =
      [](const std::string& name) -> std::unique_ptr<abr::AbrAlgorithm> {
    if (name == "Fugu") {
      return fugu::make_fugu(shared_model(), name);
    }
    return exp::make_scheme(name, exp::SchemeArtifacts{});
  };
  const exp::TrialResult baseline =
      test::run_sessions_in_order(config.trial, unwired);

  config.trial.faults.add(sim::kFaultTtpInference, 0.9);  // disabled: inert
  const exp::SchemeArtifacts artifacts = fault_artifacts(&config.trial.faults);
  for (const int shards : {1, 2, 4, 8}) {
    config.num_shards = shards;
    config.trial.num_threads = shards == 1 ? 1 : 4;
    const exp::FleetTrialResult fleet =
        exp::run_fleet_trial(config, artifacts);
    expect_identical(baseline, fleet.trial);
    for (const std::string& name : fault_metric_names()) {
      EXPECT_EQ(metric_value(fleet.metrics, name), 0) << name;
    }
  }
}

TEST(ZeroFault, ResilientFuguAssemblyGatedOnPlan) {
  sim::FaultPlan disabled;
  disabled.add(sim::kFaultTtpInference, 0.5);
  const auto plain = fugu::make_resilient_fugu(shared_model(), disabled);
  EXPECT_EQ(dynamic_cast<fugu::ResilientPredictor*>(&plain->predictor()),
            nullptr);

  sim::FaultPlan enabled = disabled;
  enabled.enabled = true;
  const auto wrapped = fugu::make_resilient_fugu(shared_model(), enabled);
  EXPECT_NE(dynamic_cast<fugu::ResilientPredictor*>(&wrapped->predictor()),
            nullptr);
}

sim::FaultPlan matrix_plan() {
  sim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 77;
  plan.add(sim::kFaultTtpInference, 0.2);
  plan.add(sim::kFaultSessionAbort, 0.05);
  return plan;
}

/// Tentpole acceptance: with faults ENABLED, results and the faults.*
/// metric plane are bit-identical across the full 1/2/4/8-shard ×
/// 1/2/4-thread matrix.
TEST(FaultMatrix, BitIdenticalAcrossShardsAndThreads) {
  exp::FleetTrialConfig config = small_fleet_config();
  config.trial.faults = matrix_plan();
  const exp::SchemeArtifacts artifacts = fault_artifacts(&config.trial.faults);

  config.num_shards = 1;
  config.trial.num_threads = 1;
  const exp::FleetTrialResult baseline =
      exp::run_fleet_trial(config, artifacts);

  // The engine reproduces the serial oracle with faults on, too.
  expect_identical(
      test::run_sessions_in_order(
          config.trial,
          [&artifacts](const std::string& name) {
            return exp::make_scheme(name, artifacts);
          }),
      baseline.trial);

  // The schedule actually fired: faults are being exercised, not parsed.
  EXPECT_GT(metric_value(baseline.metrics, "faults.ttp_failures"), 0);
  EXPECT_GT(metric_value(baseline.metrics, "faults.injected"), 0);
  EXPECT_GT(metric_value(baseline.metrics, "faults.ttp_decisions"),
            metric_value(baseline.metrics, "faults.ttp_failures"));

  for (const int shards : {1, 2, 4, 8}) {
    for (const int threads : {1, 2, 4}) {
      config.num_shards = shards;
      config.trial.num_threads = threads;
      const exp::FleetTrialResult fleet =
          exp::run_fleet_trial(config, artifacts);
      expect_identical(baseline.trial, fleet.trial);
      EXPECT_EQ(baseline.fleet.sessions, fleet.fleet.sessions);
      EXPECT_EQ(baseline.fleet.decisions, fleet.fleet.decisions);
      for (const std::string& name : fault_metric_names()) {
        EXPECT_EQ(metric_value(baseline.metrics, name),
                  metric_value(fleet.metrics, name))
            << name << " shards=" << shards << " threads=" << threads;
      }
    }
  }
}

/// Link outages on shared bottlenecks are keyed on the contention-group
/// index, so they too are shard-invariant.
TEST(FaultMatrix, LinkOutageShardInvariantUnderContention) {
  exp::FleetTrialConfig config = small_fleet_config();
  config.trial.sessions_per_scheme = 4;
  config.trial.scenario = net::ScenarioSpec{"edge-contention"};
  config.contention = exp::make_contention_spec("edge", 2);
  config.trial.faults.enabled = true;
  config.trial.faults.seed = 5;
  config.trial.faults.add(sim::kFaultLinkOutage, 0.6, /*duration_s=*/20.0);
  const exp::SchemeArtifacts artifacts = fault_artifacts(&config.trial.faults);

  config.num_shards = 1;
  const exp::FleetTrialResult one = exp::run_fleet_trial(config, artifacts);
  EXPECT_GT(metric_value(one.metrics, "faults.link_outages"), 0);

  config.num_shards = 2;
  config.trial.num_threads = 4;
  const exp::FleetTrialResult two = exp::run_fleet_trial(config, artifacts);
  expect_identical(one.trial, two.trial);
  EXPECT_EQ(metric_value(one.metrics, "faults.link_outages"),
            metric_value(two.metrics, "faults.link_outages"));
}

/// Contention-group members run SessionTask's life cycle, fault hooks
/// included: TTP-inference failures and session aborts fire inside groups,
/// every member event reaches the engine's faults.injected counter, and the
/// results and faults.* counters are bit-identical across shards × threads.
TEST(FaultMatrix, ContentionGroupsBitIdenticalWithSessionFamilies) {
  exp::FleetTrialConfig config = small_fleet_config();
  config.trial.scenario = net::ScenarioSpec{"edge-contention"};
  config.contention = exp::make_contention_spec("edge", 4);
  config.trial.faults = matrix_plan();
  const exp::SchemeArtifacts artifacts = fault_artifacts(&config.trial.faults);

  config.num_shards = 1;
  config.trial.num_threads = 1;
  const exp::FleetTrialResult baseline =
      exp::run_fleet_trial(config, artifacts);
  EXPECT_GT(metric_value(baseline.metrics, "faults.ttp_failures"), 0);
  EXPECT_GT(metric_value(baseline.metrics, "faults.session_aborts"), 0);
  EXPECT_EQ(metric_value(baseline.metrics, "faults.injected"),
            metric_value(baseline.metrics, "faults.ttp_failures") +
                metric_value(baseline.metrics, "faults.session_aborts"));

  for (const int shards : {1, 2, 4}) {
    for (const int threads : {1, 2}) {
      config.num_shards = shards;
      config.trial.num_threads = threads;
      const exp::FleetTrialResult fleet =
          exp::run_fleet_trial(config, artifacts);
      expect_identical(baseline.trial, fleet.trial);
      EXPECT_EQ(baseline.group_fairness, fleet.group_fairness);
      for (const std::string& name : fault_metric_names()) {
        EXPECT_EQ(metric_value(baseline.metrics, name),
                  metric_value(fleet.metrics, name))
            << name << " shards=" << shards << " threads=" << threads;
      }
    }
  }
}

/// Injected faults appear as instant events on the virtual-time trace
/// lanes, byte-identical across thread counts.
TEST(FaultTrace, InstantsByteIdenticalAcrossThreadCounts) {
  const auto fault_events = [](const int threads) {
    exp::FleetTrialConfig config = small_fleet_config();
    config.trial.faults = matrix_plan();
    config.num_shards = 2;
    config.trial.num_threads = threads;
    obs::TraceWriter trace;
    config.trace = &trace;
    static_cast<void>(exp::run_fleet_trial(
        config, fault_artifacts(&config.trial.faults)));
    std::vector<std::string> events;
    std::istringstream lines{trace.str()};
    std::string line;
    while (std::getline(lines, line)) {
      if (line.find("\"fault\"") != std::string::npos) {
        events.push_back(line);
      }
    }
    return events;
  };
  const std::vector<std::string> one = fault_events(1);
  const std::vector<std::string> four = fault_events(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

// ---------------------------------------------------------------------------
// Randomized chaos: schedules never crash or deadlock
// ---------------------------------------------------------------------------

/// Property test over >= 20 random fault schedules: the fleet completes
/// every session, never throws, never deadlocks, and its accounting stays
/// self-consistent.
TEST(FaultChaos, RandomizedSchedulesNeverCrashFleet) {
  for (uint64_t chaos_seed = 0; chaos_seed < 20; chaos_seed++) {
    Rng chaos = Rng{900 + chaos_seed}.split("chaos/fleet");
    exp::FleetTrialConfig config = small_fleet_config();
    config.trial.sessions_per_scheme = 2;
    config.trial.stream.max_stream_chunks = 30;
    config.trial.seed = 100 + chaos_seed;
    config.trial.num_threads = 2;
    config.num_shards = 1 + static_cast<int>(chaos_seed % 3);
    config.trial.faults.enabled = true;
    config.trial.faults.seed = chaos_seed;
    config.trial.faults.add(sim::kFaultTtpInference, chaos.uniform(0.0, 0.8));
    config.trial.faults.add(sim::kFaultSessionAbort, chaos.uniform(0.0, 0.3));

    const exp::FleetTrialResult fleet = exp::run_fleet_trial(
        config, fault_artifacts(&config.trial.faults));
    const int64_t expected_sessions =
        static_cast<int64_t>(config.trial.schemes.size()) *
        config.trial.sessions_per_scheme;
    EXPECT_EQ(fleet.fleet.sessions, expected_sessions) << chaos_seed;
    EXPECT_GT(fleet.fleet.decisions, 0) << chaos_seed;
    EXPECT_LE(metric_value(fleet.metrics, "faults.ttp_failures"),
              metric_value(fleet.metrics, "faults.ttp_decisions"))
        << chaos_seed;
  }
}

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
  config.max_examples_per_step = 400;
  return config;
}

exp::CampaignConfig tiny_campaign(const int days) {
  exp::CampaignConfig config;
  exp::CampaignArm bba;
  bba.name = "bba";
  bba.scheme = "BBA";
  exp::CampaignArm fugu_arm;
  fugu_arm.name = "fugu";
  fugu_arm.scheme = "Fugu";
  fugu_arm.retrain = true;
  fugu_arm.ttp = tiny_ttp();
  fugu_arm.train = tiny_train();
  config.arms = {bba, fugu_arm};
  config.phases = {exp::CampaignPhase{net::ScenarioSpec{"puffer"}, days}};
  config.telemetry_sessions_per_day = 4;
  config.eval_sessions_per_day = 3;
  config.holdout_sessions_per_day = 2;
  config.seed = 17;
  config.num_threads = 2;
  config.stream.max_stream_chunks = 50;
  return config;
}

/// Chaos over campaigns: random schedules across every campaign-layer fault
/// family; the campaign must complete all its days.
TEST(FaultChaos, RandomizedSchedulesNeverCrashCampaign) {
  for (uint64_t chaos_seed = 0; chaos_seed < 6; chaos_seed++) {
    Rng chaos = Rng{700 + chaos_seed}.split("chaos/campaign");
    exp::CampaignConfig config = tiny_campaign(1);
    config.seed = 40 + chaos_seed;
    config.faults.enabled = true;
    config.faults.seed = chaos_seed;
    config.faults.add(sim::kFaultTtpInference, chaos.uniform(0.0, 0.6));
    config.faults.add(sim::kFaultSessionAbort, chaos.uniform(0.0, 0.2));
    config.faults.add(sim::kFaultRetrainCrash, chaos.uniform(0.0, 1.0));
    config.faults.add(sim::kFaultTelemetryLoss, chaos.uniform(0.0, 0.5));
    config.faults.add(sim::kFaultTelemetryDup, chaos.uniform(0.0, 0.5));

    exp::Campaign campaign{config};
    const exp::CampaignResult result = campaign.run();
    ASSERT_EQ(result.days.size(), 1u) << chaos_seed;
    const exp::DayStats& day = result.days.front();
    EXPECT_LE(day.telemetry_lost, day.telemetry_streams) << chaos_seed;
    for (const exp::ArmDayStats& arm : day.arms) {
      EXPECT_GE(arm.sessions, 0) << chaos_seed;
      if (arm.degraded) {
        EXPECT_GT(arm.retrain_crashes, 0) << chaos_seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Campaign-layer graceful degradation
// ---------------------------------------------------------------------------

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Degradation invariant: with every retrain attempt crashing, the campaign
/// still completes all days, each degraded day serving the prior deployed
/// model unchanged.
TEST(CampaignFaults, RetrainCrashKeepsPriorModelOnDegradedDays) {
  exp::CampaignConfig config = tiny_campaign(2);
  config.faults.enabled = true;
  config.faults.seed = 1;
  config.faults.add(sim::kFaultRetrainCrash, 1.0);

  exp::Campaign campaign{config};
  const fugu::TtpModel* day0_model = campaign.deployed_model("fugu");
  ASSERT_NE(day0_model, nullptr);
  const exp::CampaignResult result = campaign.run();
  ASSERT_EQ(result.days.size(), 2u);

  for (const exp::DayStats& day : result.days) {
    EXPECT_TRUE(day.degraded);
    const exp::ArmDayStats& learner = day.arms[1];
    EXPECT_TRUE(learner.degraded);
    // 1 + 2 retries (campaign.cc's retry budget), all crashed.
    EXPECT_EQ(learner.retrain_crashes, 3);
    // Backoff: 900 s doubling per retry (900 + 1800 + 3600 s), all under
    // the 7200 s cap.
    expect_same_bits(learner.retrain_backoff_s, 900.0 * (1.0 + 2.0 + 4.0));
    EXPECT_FALSE(day.arms[0].degraded);  // BBA has no retrain to crash
  }
  // No retrain ever deployed: the arm still serves its day-0 cold model.
  EXPECT_EQ(campaign.deployed_model("fugu"), day0_model);

  const obs::MetricSnapshot metrics = campaign.metrics();
  EXPECT_EQ(metric_value(metrics, "campaign.retrains"), 0);
  EXPECT_EQ(metric_value(metrics, "faults.retrain_crashes"), 6);
  EXPECT_EQ(metric_value(metrics, "faults.degraded_days"), 2);

  // Degraded days are flagged in both report renderings.
  const std::string csv = exp::campaign_report_csv(result.days);
  EXPECT_NE(csv.find("degraded,retrain_crashes,retrain_backoff_s"),
            std::string::npos);
  const std::string json = exp::campaign_report_json(result.days);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"retrain_crashes\":3"), std::string::npos);
}

/// Degradation invariant: injected checkpoint-load failures exhaust their
/// retry budget and produce a FLAGGED fresh start, not an abort.
TEST(CampaignFaults, CheckpointLoadFaultDegradesToFlaggedFreshStart) {
  const std::string dir = fresh_dir("faults_ckpt_load");
  {
    exp::CampaignConfig config = tiny_campaign(1);
    config.checkpoint_dir = dir;
    exp::Campaign campaign{config};
    static_cast<void>(campaign.run());
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/campaign.ckpt"));

  exp::CampaignConfig faulted = tiny_campaign(1);
  faulted.checkpoint_dir = dir;
  faulted.faults.enabled = true;
  faulted.faults.seed = 2;
  faulted.faults.add(sim::kFaultCheckpointLoad, 1.0);

  exp::Campaign campaign{faulted};  // must NOT throw
  EXPECT_EQ(campaign.completed_days(), 0);  // fresh start: nothing restored
  const exp::CampaignResult result = campaign.run();
  EXPECT_TRUE(result.fresh_start_degraded);
  EXPECT_EQ(result.restored_days, 0);
  ASSERT_EQ(result.days.size(), 1u);

  const obs::MetricSnapshot metrics = campaign.metrics();
  // Initial try + 2 retries (campaign.cc's retry budget), all failed.
  EXPECT_EQ(metric_value(metrics, "faults.checkpoint_load_failures"), 3);
  EXPECT_EQ(metric_value(metrics, "faults.checkpoint_fresh_starts"), 1);
}

/// Degradation invariant: injected model corruption inside an otherwise
/// valid checkpoint degrades that arm to a cold re-init instead of aborting
/// the restore.
TEST(CampaignFaults, ModelLoadFaultColdReinitsArm) {
  const std::string dir = fresh_dir("faults_model_load");
  exp::CampaignConfig config = tiny_campaign(2);
  config.checkpoint_dir = dir;
  config.faults.enabled = true;
  config.faults.seed = 3;
  config.faults.add(sim::kFaultModelLoad, 1.0);

  {
    exp::Campaign campaign{config};
    static_cast<void>(campaign.run(1));  // day 0 only, then checkpoint
  }
  exp::Campaign resumed{config};  // restore hits the model-load fault
  EXPECT_EQ(resumed.completed_days(), 1);
  EXPECT_GE(metric_value(resumed.metrics(), "faults.model_load_failures"), 1);
  const exp::CampaignResult result = resumed.run();  // completes day 1
  ASSERT_EQ(result.days.size(), 2u);
  EXPECT_EQ(result.restored_days, 1);
}

/// Pins Campaign's whole metric snapshot (names, order and values) in three
/// states: a faulted, checkpointed campaign after its first day; a new
/// object that resumes it (hitting an injected model-load fault) and
/// finishes; and a checkpoint-load fresh start that then runs a day. With
/// fault seed 5, day 0's retrain succeeds after one crash and day 1's
/// retrain crashes three times and degrades, so every counter is exercised.
TEST(CampaignFaults, MetricsSnapshotIsPinned) {
  const std::string dir = fresh_dir("faults_metrics_pin");
  exp::CampaignConfig config = tiny_campaign(2);
  config.checkpoint_dir = dir;
  config.telemetry_sessions_per_day = 8;
  config.faults.enabled = true;
  config.faults.seed = 5;
  config.faults.add(sim::kFaultRetrainCrash, 0.6);
  config.faults.add(sim::kFaultTelemetryLoss, 0.3);
  config.faults.add(sim::kFaultTelemetryDup, 0.3);
  config.faults.add(sim::kFaultModelLoad, 1.0);
  const auto snapshot_hash = [](const exp::Campaign& campaign) {
    return stable_hash(campaign.metrics().to_json());
  };

  exp::Campaign first{config};
  static_cast<void>(first.run(1));
  EXPECT_EQ(snapshot_hash(first), 15966996363741845111u);

  exp::Campaign resumed{config};
  static_cast<void>(resumed.run());
  EXPECT_EQ(snapshot_hash(resumed), 1011279416517641005u);

  config.faults.add(sim::kFaultCheckpointLoad, 1.0);
  exp::Campaign fresh{config};
  static_cast<void>(fresh.run(1));
  EXPECT_EQ(snapshot_hash(fresh), 3824555242994556465u);
}

/// Telemetry loss and duplication are accounted per day and reach the
/// metric plane; a resumed campaign replays the same schedule.
TEST(CampaignFaults, TelemetryLossAndDuplicationAccounted) {
  exp::CampaignConfig config = tiny_campaign(1);
  config.telemetry_sessions_per_day = 8;
  config.faults.enabled = true;
  config.faults.seed = 4;
  config.faults.add(sim::kFaultTelemetryLoss, 0.5);
  config.faults.add(sim::kFaultTelemetryDup, 0.5);

  exp::Campaign campaign{config};
  const exp::CampaignResult result = campaign.run();
  ASSERT_EQ(result.days.size(), 1u);
  const exp::DayStats& day = result.days.front();
  EXPECT_GT(day.telemetry_lost + day.telemetry_duplicated, 0u);
  EXPECT_LE(day.telemetry_lost, day.telemetry_streams);
  const obs::MetricSnapshot metrics = campaign.metrics();
  EXPECT_EQ(metric_value(metrics, "faults.telemetry_lost"),
            static_cast<int64_t>(day.telemetry_lost));
  EXPECT_EQ(metric_value(metrics, "faults.telemetry_duplicated"),
            static_cast<int64_t>(day.telemetry_duplicated));

  // Pure function of the config: an identical campaign replays identically.
  exp::Campaign replay{config};
  const exp::CampaignResult again = replay.run();
  EXPECT_EQ(again.days.front().telemetry_lost, day.telemetry_lost);
  EXPECT_EQ(again.days.front().telemetry_duplicated, day.telemetry_duplicated);
  EXPECT_TRUE(again.days.front() == day);
}

/// Faulted campaigns are deterministic end to end: the whole day history
/// compares equal across a replay at a different thread count.
TEST(CampaignFaults, FaultedCampaignBitIdenticalAcrossThreadCounts) {
  exp::CampaignConfig config = tiny_campaign(1);
  config.faults.enabled = true;
  config.faults.seed = 6;
  config.faults.add(sim::kFaultTtpInference, 0.3);
  config.faults.add(sim::kFaultSessionAbort, 0.1);
  config.faults.add(sim::kFaultRetrainCrash, 0.5);

  config.num_threads = 1;
  const exp::CampaignResult one = exp::Campaign{config}.run();
  config.num_threads = 4;
  const exp::CampaignResult four = exp::Campaign{config}.run();
  ASSERT_EQ(one.days.size(), four.days.size());
  for (size_t d = 0; d < one.days.size(); d++) {
    EXPECT_TRUE(one.days[d] == four.days[d]) << "day " << d;
  }
}

}  // namespace
}  // namespace puffer
