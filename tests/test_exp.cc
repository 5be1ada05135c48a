#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "exp/insitu.hh"
#include "exp/models.hh"
#include "exp/registry.hh"
#include "exp/trial.hh"
#include "exp/trial_cache.hh"
#include "util/require.hh"

namespace puffer::exp {
namespace {

TEST(Registry, SchemeTableMatchesFigure5) {
  const auto& table = scheme_table();
  ASSERT_EQ(table.size(), 6u);
  // Spot-check the distinguishing cells of Figure 5.
  bool found_fugu = false, found_pensieve = false;
  for (const auto& row : table) {
    if (row.name == "Fugu") {
      found_fugu = true;
      EXPECT_EQ(row.training, "supervised learning in situ");
      EXPECT_EQ(row.control, "classical (MPC)");
    }
    if (row.name == "Pensieve") {
      found_pensieve = true;
      EXPECT_EQ(row.training, "reinforcement learning in simulation");
    }
  }
  EXPECT_TRUE(found_fugu);
  EXPECT_TRUE(found_pensieve);
}

TEST(Registry, ClassicalSchemesNeedNoArtifacts) {
  const SchemeArtifacts none;
  for (const auto* name : {"BBA", "MPC-HM", "RobustMPC-HM"}) {
    const auto scheme = make_scheme(name, none);
    EXPECT_EQ(scheme->name(), name);
  }
}

TEST(Registry, LearnedSchemesRequireArtifacts) {
  const SchemeArtifacts none;
  EXPECT_THROW(make_scheme("Fugu", none), RequirementError);
  EXPECT_THROW(make_scheme("Pensieve", none), RequirementError);
  EXPECT_THROW(make_scheme("Emulation-trained Fugu", none), RequirementError);
}

TEST(Registry, UnknownSchemeRejected) {
  const SchemeArtifacts none;
  EXPECT_THROW(make_scheme("HAL9000", none), RequirementError);
}

TEST(Registry, FuguVariantsBuildFromTtp) {
  SchemeArtifacts artifacts;
  artifacts.ttp_insitu =
      std::make_shared<const fugu::TtpModel>(fugu::TtpConfig{}, 1);
  EXPECT_EQ(make_scheme("Fugu", artifacts)->name(), "Fugu");
  EXPECT_EQ(make_scheme("Fugu-point-estimate", artifacts)->name(),
            "Fugu-point-estimate");
}

TrialConfig small_trial_config() {
  TrialConfig config;
  config.schemes = {"BBA", "MPC-HM"};
  config.sessions_per_scheme = 24;
  config.seed = 7;
  // Four workers, so the fleet engine runs four shards in parallel on every
  // machine; results are bit-identical to one thread regardless.
  config.num_threads = 4;
  return config;
}

/// The small trial is pure function of its config, so tests that only read
/// it share one run instead of each re-simulating 48 sessions.
const TrialResult& shared_small_trial() {
  static const TrialResult trial = [] {
    const SchemeArtifacts none;
    return run_trial(small_trial_config(), none);
  }();
  return trial;
}

TEST(Trial, ConsortAccountingIsConsistent) {
  const TrialResult& trial = shared_small_trial();
  ASSERT_EQ(trial.schemes.size(), 2u);
  int64_t total_sessions = 0;
  for (const auto& scheme : trial.schemes) {
    const auto& c = scheme.consort;
    total_sessions += c.sessions;
    // Every stream lands in exactly one bucket.
    EXPECT_EQ(c.streams,
              c.never_began + c.under_min_watch + c.decoder_failure +
                  c.considered);
    EXPECT_EQ(c.considered,
              static_cast<int64_t>(scheme.considered.size()));
    EXPECT_LE(c.truncated, c.considered);
    EXPECT_GE(c.streams, c.sessions);  // sessions contain >= 1 stream
  }
  EXPECT_EQ(total_sessions, 48);
}

TEST(Trial, ExclusionBucketsArePopulated) {
  const TrialResult& trial = shared_small_trial();
  int64_t never = 0, under = 0, considered = 0;
  for (const auto& scheme : trial.schemes) {
    never += scheme.consort.never_began;
    under += scheme.consort.under_min_watch;
    considered += scheme.consort.considered;
  }
  // The zapping-heavy user model must populate all three big buckets.
  EXPECT_GT(never, 0);
  EXPECT_GT(under, 0);
  EXPECT_GT(considered, 0);
}

TEST(Trial, DeterministicForSeed) {
  // The shared trial ran on 4 workers; this fresh run uses one thread (one
  // shard on the caller). Equality checks both determinism across runs and
  // thread-count invariance.
  const SchemeArtifacts none;
  TrialConfig serial_config = small_trial_config();
  serial_config.num_threads = 1;
  const TrialResult a = run_trial(serial_config, none);
  const TrialResult& b = shared_small_trial();
  ASSERT_EQ(a.schemes.size(), b.schemes.size());
  for (size_t s = 0; s < a.schemes.size(); s++) {
    EXPECT_EQ(a.schemes[s].consort.considered,
              b.schemes[s].consort.considered);
    ASSERT_EQ(a.schemes[s].considered.size(), b.schemes[s].considered.size());
    for (size_t i = 0; i < a.schemes[s].considered.size(); i++) {
      EXPECT_DOUBLE_EQ(a.schemes[s].considered[i].watch_time_s,
                       b.schemes[s].considered[i].watch_time_s);
    }
  }
}

TEST(Trial, PairedModeGivesEverySchemeEverySession) {
  TrialConfig config = small_trial_config();
  config.paired_paths = true;
  config.sessions_per_scheme = 12;
  const SchemeArtifacts none;
  const TrialResult trial = run_trial(config, none);
  EXPECT_EQ(trial.schemes[0].consort.sessions, 12);
  EXPECT_EQ(trial.schemes[1].consort.sessions, 12);
  // Identical session plans: stream counts match exactly across schemes.
  EXPECT_EQ(trial.schemes[0].consort.streams, trial.schemes[1].consort.streams);
}

TEST(Trial, CollectLogsYieldsChunkTelemetry) {
  TrialConfig config = small_trial_config();
  config.collect_logs = true;
  config.day = 3;
  const SchemeArtifacts none;
  const TrialResult trial = run_trial(config, none);
  size_t chunks = 0;
  for (const auto& scheme : trial.schemes) {
    for (const auto& log : scheme.logs) {
      EXPECT_EQ(log.day, 3);
      chunks += log.chunks.size();
      for (const auto& chunk : log.chunks) {
        EXPECT_GT(chunk.size_mb, 0.0);
        EXPECT_GT(chunk.tx_time_s, 0.0);
      }
    }
  }
  EXPECT_GT(chunks, 300u);
}

TEST(Trial, SlowPathSubsetIsSlow) {
  const TrialResult& trial = shared_small_trial();
  size_t slow_count = 0;
  for (const auto& scheme : trial.schemes) {
    for (const auto& figures : scheme.slow_paths()) {
      EXPECT_LT(figures.mean_delivery_rate_mbps, 6.0);
      slow_count++;
    }
  }
  // ~15-25% of sampled paths average under 6 Mbit/s, so the subset must be
  // non-empty (the loop above would otherwise be vacuous).
  EXPECT_GT(slow_count, 0u);
}

TEST(Trial, ResultForLookup) {
  const TrialResult& trial = shared_small_trial();
  EXPECT_EQ(trial.result_for("BBA").scheme, "BBA");
  EXPECT_THROW(static_cast<void>(trial.result_for("nope")), RequirementError);
}

TEST(Insitu, TtpSaveLoadRoundTrip) {
  const fugu::TtpConfig config;
  const fugu::TtpModel model{config, 31};
  const std::string path = ::testing::TempDir() + "/ttp_roundtrip.bin";
  save_ttp(model, path);
  const auto loaded = try_load_ttp(config, path);
  ASSERT_TRUE(loaded.has_value());
  for (size_t k = 0; k < model.networks().size(); k++) {
    EXPECT_EQ(model.networks()[k], loaded->networks()[k]);
  }
  std::remove(path.c_str());
}

TEST(Insitu, TtpLoadRejectsMismatchedConfig) {
  fugu::TtpConfig linear;
  linear.hidden_layers = {};
  const fugu::TtpModel model{linear, 32};
  const std::string path = ::testing::TempDir() + "/ttp_linear.bin";
  save_ttp(model, path);
  EXPECT_FALSE(try_load_ttp(fugu::TtpConfig{}, path).has_value());
  std::remove(path.c_str());
}

TEST(Insitu, DatasetSaveLoadRoundTrip) {
  fugu::TtpDataset dataset;
  fugu::StreamLog stream;
  stream.day = 5;
  fugu::ChunkLog chunk;
  chunk.size_mb = 1.25;
  chunk.tx_time_s = 0.8;
  chunk.tcp_at_send.delivery_rate_bps = 1e6;
  stream.chunks.push_back(chunk);
  dataset.push_back(stream);

  const std::string path = ::testing::TempDir() + "/dataset_roundtrip.bin";
  save_dataset(dataset, path);
  const auto loaded = try_load_dataset(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].day, 5);
  ASSERT_EQ((*loaded)[0].chunks.size(), 1u);
  EXPECT_DOUBLE_EQ((*loaded)[0].chunks[0].size_mb, 1.25);
  EXPECT_DOUBLE_EQ((*loaded)[0].chunks[0].tcp_at_send.delivery_rate_bps, 1e6);
  std::remove(path.c_str());
}

TEST(Insitu, CollectTelemetryProducesTrainableData) {
  const fugu::TtpDataset dataset =
      collect_telemetry(net::ScenarioSpec{"puffer"},
                        /*num_sessions=*/24, /*day=*/0, /*seed=*/55);
  size_t chunks = 0;
  for (const auto& stream : dataset) {
    chunks += stream.chunks.size();
  }
  EXPECT_GT(dataset.size(), 10u);
  EXPECT_GT(chunks, 300u);
}

TEST(Insitu, EndToEndTinyInsituTraining) {
  fugu::TtpConfig config;
  config.horizon = 2;
  fugu::TtpTrainConfig train_config;
  train_config.epochs = 1;
  train_config.max_examples_per_step = 4000;
  fugu::TtpTrainReport report;
  const fugu::TtpModel model =
      train_ttp_on_scenario(net::ScenarioSpec{"puffer"}, config,
                            train_config, /*days=*/1, /*sessions_per_day=*/20,
                            /*seed=*/66, &report);
  EXPECT_GT(report.examples_per_step, 100u);
  // The trained model must beat the uniform baseline (ln 21 = 3.04) on its
  // own training distribution.
  const fugu::TtpDataset eval_data =
      collect_telemetry(net::ScenarioSpec{"puffer"}, 8, 0, 67);
  const auto eval = evaluate_ttp(model, eval_data);
  EXPECT_LT(eval.cross_entropy, 2.8);
}

/// A corrupt trial-cache entry is a miss, not an error: run_trial_cached
/// evicts it, recomputes, and re-saves the repaired entry.
TEST(TrialCache, CorruptEntryIsEvictedAndRecomputed) {
  TrialConfig config = small_trial_config();
  config.sessions_per_scheme = 6;
  config.seed = 4242;  // private cache identity for this test
  const SchemeArtifacts none;
  const std::string label = "cache_evict_test";
  const TrialResult first = run_trial_cached(config, none, label);

  // Locate the entry this run wrote and garble it in place.
  std::string entry;
  for (const auto& file :
       std::filesystem::directory_iterator(model_cache_dir())) {
    const std::string name = file.path().filename().string();
    if (name.rfind("trial_" + label + "_", 0) == 0) {
      entry = file.path().string();
    }
  }
  ASSERT_FALSE(entry.empty());
  // The filename carries the config fingerprint; pinning it catches any
  // change to the cache key's canonical string (which would orphan every
  // existing entry).
  EXPECT_EQ(std::filesystem::path(entry).filename().string(),
            "trial_cache_evict_test_330681123857905793.bin");
  {
    std::ofstream out{entry, std::ios::binary | std::ios::trunc};
    out << "garbage";
  }

  const TrialResult recomputed = run_trial_cached(config, none, label);
  ASSERT_EQ(recomputed.schemes.size(), first.schemes.size());
  for (size_t s = 0; s < first.schemes.size(); s++) {
    EXPECT_EQ(recomputed.schemes[s].consort.sessions,
              first.schemes[s].consort.sessions);
    EXPECT_EQ(recomputed.schemes[s].considered.size(),
              first.schemes[s].considered.size());
  }
  // The recompute repaired the entry: the next call is served from cache.
  const auto repaired = try_load_trial(entry);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->schemes.size(), first.schemes.size());
  std::remove(entry.c_str());
}

/// Trial-cache entries are keyed by the trained models too: one config run
/// with two differently seeded TTPs must not share an entry.
TEST(TrialCache, EntriesAreKeyedByTheModels) {
  TrialConfig config = small_trial_config();
  config.schemes = {"Fugu"};
  config.sessions_per_scheme = 2;
  config.seed = 4343;  // private cache identity for this test
  fugu::TtpConfig tiny;
  tiny.hidden_layers = {8};
  const std::string label = "cache_models_test";
  const auto entries = [&label] {
    std::vector<std::string> found;
    for (const auto& file :
         std::filesystem::directory_iterator(model_cache_dir())) {
      const std::string name = file.path().filename().string();
      if (name.rfind("trial_" + label + "_", 0) == 0) {
        found.push_back(file.path().string());
      }
    }
    return found;
  };
  for (const std::string& stale : entries()) {
    std::remove(stale.c_str());
  }

  for (const uint64_t seed : {1u, 2u}) {
    SchemeArtifacts artifacts;
    artifacts.ttp_insitu = std::make_shared<const fugu::TtpModel>(tiny, seed);
    static_cast<void>(run_trial_cached(config, artifacts, label));
  }
  const std::vector<std::string> written = entries();
  EXPECT_EQ(written.size(), 2u);
  for (const std::string& entry : written) {
    std::remove(entry.c_str());
  }
}

}  // namespace
}  // namespace puffer::exp
