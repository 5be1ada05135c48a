#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "exp/trial.hh"
#include "net/scenario.hh"
#include "net/trace_file.hh"
#include "util/require.hh"
#include "util/rng.hh"

namespace puffer::net {
namespace {

constexpr double kMbps = 1e6 / 8.0;  // bytes/s per Mbit/s

/// One family per synthetic model (the contention families reuse three of
/// these models; trace-replay needs a file).
const std::vector<std::string> kBuiltinSynthetic = {
    "puffer",  "fcc-emulation", "markov-cs2p",      "cellular",
    "diurnal", "wifi-oscillating", "satellite"};

TEST(ScenarioTable, BuiltinFamiliesListed) {
  for (const auto& name : kBuiltinSynthetic) {
    EXPECT_TRUE(is_scenario_family(name)) << name;
    EXPECT_FALSE(scenario_description(name).empty()) << name;
  }
  EXPECT_TRUE(is_scenario_family("trace-replay"));
  // scenario_families() is sorted and consistent with is_scenario_family().
  const auto names = scenario_families();
  EXPECT_EQ(names.size(), 11u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const auto& name : names) {
    EXPECT_TRUE(is_scenario_family(name));
  }
}

TEST(ScenarioTable, UnknownFamilyThrows) {
  EXPECT_FALSE(is_scenario_family("undersea-cable"));
  EXPECT_THROW(make_path_generator(ScenarioSpec{"undersea-cable"}),
               RequirementError);
  EXPECT_THROW(static_cast<void>(scenario_description("undersea-cable")),
               RequirementError);
}

TEST(ScenarioTable, TraceReplayRequiresPath) {
  EXPECT_THROW(make_path_generator(ScenarioSpec{"trace-replay"}),
               RequirementError);
}

TEST(ScenarioSpec, SpecKeyIsStable) {
  EXPECT_EQ(ScenarioSpec{}.key(), "puffer:");
  EXPECT_EQ((ScenarioSpec{"trace-replay", "/tmp/x.trace"}.key()),
            "trace-replay:/tmp/x.trace");
  EXPECT_EQ(ScenarioSpec{"cellular"}, ScenarioSpec{"cellular"});
  EXPECT_FALSE(ScenarioSpec{"cellular"} == ScenarioSpec{"satellite"});
}

TEST(ScenarioSpec, SpecParseInvertsKey) {
  EXPECT_EQ(ScenarioSpec::parse("cellular"), ScenarioSpec{"cellular"});
  EXPECT_EQ(ScenarioSpec::parse("puffer:"), ScenarioSpec{"puffer"});
  EXPECT_EQ(ScenarioSpec::parse("trace-replay:/tmp/x.trace"),
            (ScenarioSpec{"trace-replay", "/tmp/x.trace"}));
  const ScenarioSpec spec{"trace-replay", "/tmp/a:b.trace"};
  EXPECT_EQ(ScenarioSpec::parse(spec.key()), spec);
  EXPECT_THROW(ScenarioSpec::parse(""), RequirementError);
}

TEST(ScenarioSpec, SpecParseErrorsArePrecise) {
  try {
    static_cast<void>(ScenarioSpec::parse(":x"));
    FAIL() << "expected RequirementError";
  } catch (const RequirementError& error) {
    EXPECT_NE(std::string{error.what()}.find("empty family"),
              std::string::npos);
  }
  try {
    static_cast<void>(ScenarioSpec::parse("marsnet:dust-storm"));
    FAIL() << "expected RequirementError";
  } catch (const RequirementError& error) {
    const std::string message = error.what();
    // Names the offending family and lists the known ones.
    EXPECT_NE(message.find("marsnet"), std::string::npos);
    EXPECT_NE(message.find("puffer"), std::string::npos);
    EXPECT_NE(message.find("trace-replay"), std::string::npos);
  }
}

TEST(ScenarioFamilies, DeterministicPerSeed) {
  // Same (family, seed) -> bit-identical path; different seed -> different.
  for (const auto& family : kBuiltinSynthetic) {
    const auto generator = make_path_generator(ScenarioSpec{family});
    Rng a{99}, b{99}, c{100};
    const NetworkPath pa = generator->sample_path(a, 300.0);
    const NetworkPath pb = generator->sample_path(b, 300.0);
    const NetworkPath pc = generator->sample_path(c, 300.0);
    EXPECT_EQ(pa.trace.rates(), pb.trace.rates()) << family;
    EXPECT_DOUBLE_EQ(pa.min_rtt_s, pb.min_rtt_s) << family;
    EXPECT_NE(pa.trace.rates(), pc.trace.rates()) << family;
  }
}

TEST(ScenarioFamilies, PathsArePlausible) {
  for (const auto& family : kBuiltinSynthetic) {
    const auto generator = make_path_generator(ScenarioSpec{family});
    Rng rng{7};
    for (int i = 0; i < 20; i++) {
      const NetworkPath path = generator->sample_path(rng, 600.0);
      EXPECT_GE(path.trace.duration(), 600.0) << family;
      EXPECT_GT(path.min_rtt_s, 0.0) << family;
      EXPECT_LT(path.min_rtt_s, 1.0) << family;
      for (const double rate : path.trace.rates()) {
        EXPECT_GT(rate, 0.0) << family;
        EXPECT_LT(rate, 500.0 * kMbps) << family;
      }
    }
  }
}

TEST(ScenarioFamilies, SatelliteHasGeoRtt) {
  const auto generator = make_path_generator(ScenarioSpec{"satellite"});
  Rng rng{11};
  for (int i = 0; i < 30; i++) {
    const NetworkPath path = generator->sample_path(rng, 120.0);
    EXPECT_GE(path.min_rtt_s, 0.45);
    EXPECT_LE(path.min_rtt_s, 0.90);
  }
}

TEST(ScenarioFamilies, SatelliteRainFadesAttenuate) {
  SatellitePathModel model;
  Rng rng{12};
  int faded_segments = 0, total = 0;
  for (int i = 0; i < 40; i++) {
    const NetworkPath path = model.sample_path(rng, 1800.0);
    const double typical = path.trace.mean_rate();
    for (const double rate : path.trace.rates()) {
      total++;
      if (rate < 0.25 * typical) {
        faded_segments++;
      }
    }
  }
  EXPECT_GT(faded_segments, 0);
  // Fades are episodes, not the norm.
  EXPECT_LT(static_cast<double>(faded_segments) / total, 0.35);
}

TEST(ScenarioFamilies, CellularWalksThroughStates) {
  CellularPathModel model;
  Rng rng{13};
  const NetworkPath path = model.sample_path(rng, 3600.0);
  // Fast fading: substantial segment-to-segment variation.
  const auto& rates = path.trace.rates();
  int big_moves = 0;
  for (size_t i = 1; i < rates.size(); i++) {
    if (rates[i] > 1.5 * rates[i - 1] || rates[i] < rates[i - 1] / 1.5) {
      big_moves++;
    }
  }
  EXPECT_GT(big_moves, static_cast<int>(rates.size()) / 10);
  // The hidden chain visits both slow and fast regimes over an hour.
  const double lo = *std::min_element(rates.begin(), rates.end());
  const double hi = *std::max_element(rates.begin(), rates.end());
  EXPECT_GT(hi / lo, 10.0);
}

TEST(ScenarioFamilies, DiurnalSagsAtPeakHour) {
  const DiurnalPathModel model;
  Rng rng{14};
  // A 24-hour trace must show the full swing: the trough of its 1-hour
  // moving average sits near kTroughFraction of the peak (the average
  // smooths the segment noise; the per-path base rate cancels in the ratio).
  const NetworkPath path = model.sample_path(rng, 24.0 * 3600.0);
  const auto& rates = path.trace.rates();
  const auto window = static_cast<size_t>(
      3600.0 / DiurnalPathModel::kSegmentDurationS);
  double sum = 0.0;
  double lo = 0.0, hi = 0.0;
  for (size_t i = 0; i < rates.size(); i++) {
    sum += rates[i];
    if (i >= window) {
      sum -= rates[i - window];
    }
    if (i + 1 >= window) {
      const double mean = sum / static_cast<double>(window);
      lo = i + 1 == window ? mean : std::min(lo, mean);
      hi = std::max(hi, mean);
    }
  }
  EXPECT_NEAR(lo / hi, DiurnalPathModel::kTroughFraction, 0.05);
}

TEST(ScenarioFamilies, WifiOscillatesBetweenTwoLevels) {
  const WifiPathModel model;
  Rng rng{15};
  const NetworkPath path = model.sample_path(rng, 600.0);
  const auto& rates = path.trace.rates();
  // Most samples sit in the good state, so the overall median is a good
  // sample; the good level is the median of the samples above the geometric
  // midpoint below it.
  std::vector<double> sorted = rates;
  std::sort(sorted.begin(), sorted.end());
  const double split =
      sorted[sorted.size() / 2] * std::sqrt(WifiPathModel::kDegradedFraction);
  const auto upper = std::upper_bound(sorted.begin(), sorted.end(), split);
  const double good_level = *(upper + (sorted.end() - upper) / 2);
  const double degraded_level = good_level * WifiPathModel::kDegradedFraction;
  // The levels lie ~12.6 noise sigmas apart (log space). Outside deep fades
  // every sample sits within 4.5 sigmas of one of them, so none falls near
  // their geometric midpoint, where a smooth oscillation would put some.
  int good = 0, off_level = 0;
  for (const double rate : rates) {
    if (rate < 2.0 * WifiPathModel::kFadeFloorMbps * kMbps) {
      continue;  // deep fade
    }
    const double z_good =
        std::abs(std::log(rate / good_level)) / WifiPathModel::kNoiseSigma;
    const double z_degraded =
        std::abs(std::log(rate / degraded_level)) / WifiPathModel::kNoiseSigma;
    good += z_good < z_degraded ? 1 : 0;
    off_level += std::min(z_good, z_degraded) > 4.5 ? 1 : 0;
  }
  EXPECT_EQ(off_level, 0);
  // Good-state occupancy tracks the default duty cycle of 0.65.
  EXPECT_NEAR(static_cast<double>(good) / static_cast<double>(rates.size()),
              0.65, 0.10);
}

/// Bits of a sampled path (every rate, then min_rtt_s), folded with mix64.
uint64_t path_bits(const NetworkPath& path) {
  uint64_t hash = path.trace.rates().size();
  for (const double rate : path.trace.rates()) {
    hash = mix64(hash ^ std::bit_cast<uint64_t>(rate));
  }
  return mix64(hash ^ std::bit_cast<uint64_t>(path.min_rtt_s));
}

/// Hash of sample_path(Rng{seed}, 900 s) over seeds 1..4.
uint64_t pinned_hash(const PathGenerator& generator) {
  uint64_t hash = 0;
  for (uint64_t seed = 1; seed <= 4; seed++) {
    Rng rng{seed};
    hash = mix64(hash ^ path_bits(generator.sample_path(rng, 900.0)));
  }
  return hash;
}

TEST(ScenarioFamilies, SampledPathsArePinnedBitForBit) {
  // Every family's sampled path, bit for bit: a parameter that moves, or a
  // constant the compiler folds to different bits than glibc computes at run
  // time, changes a hash here before it changes a trial aggregate.
  Rng trace_rng{4242};
  const std::string trace = ::testing::TempDir() + "/pinned.trace";
  TraceFile::from_trace(FccTraceModel{}.sample_path(trace_rng, 600.0).trace)
      .save(trace);
  const std::vector<std::pair<ScenarioSpec, uint64_t>> pinned = {
      {ScenarioSpec{"cell-shared"}, 3967134606321326578ULL},
      {ScenarioSpec{"cellular"}, 13175852645833287369ULL},
      {ScenarioSpec{"diurnal"}, 4946967152381200633ULL},
      {ScenarioSpec{"edge-contention"}, 10518269136335059256ULL},
      {ScenarioSpec{"fcc-emulation"}, 9743901456821547641ULL},
      {ScenarioSpec{"markov-cs2p"}, 8499561034215337047ULL},
      {ScenarioSpec{"puffer"}, 18067283211372448968ULL},
      {ScenarioSpec{"satellite"}, 9900392208124651090ULL},
      {ScenarioSpec{"trace-replay", trace}, 3085784317248298779ULL},
      {ScenarioSpec{"wifi-home"}, 14517665267959006074ULL},
      {ScenarioSpec{"wifi-oscillating"}, 5518916774583936033ULL},
  };
  for (const auto& [spec, expected] : pinned) {
    EXPECT_EQ(pinned_hash(*make_path_generator(spec)), expected)
        << spec.family;
  }
  // FCC at Pensieve's training parameters (abr::PensieveTrainConfig).
  EXPECT_EQ(pinned_hash(FccTraceModel{3.0, 0.45}), 8888798972099762142ULL);
  std::remove(trace.c_str());
}

TEST(TraceReplay, ReplaysAndLoopsTheFile) {
  // 12 Mbit/s for 2 s -> evenly spaced delivery opportunities.
  const ThroughputTrace source{{12.0 * kMbps, 12.0 * kMbps}, 1.0};
  const std::string path = ::testing::TempDir() + "/replay.trace";
  TraceFile::from_trace(source).save(path);

  const auto generator =
      make_path_generator(ScenarioSpec{"trace-replay", path});
  Rng rng{1};
  const NetworkPath replayed = generator->sample_path(rng, 60.0);
  // Looped to cover the session.
  EXPECT_GE(replayed.trace.duration(), 60.0);
  EXPECT_DOUBLE_EQ(replayed.min_rtt_s, 0.040);
  EXPECT_NEAR(replayed.trace.mean_rate(), 12.0 * kMbps, 0.5 * kMbps);
  // Replay is deterministic: every session sees the identical trace.
  Rng other{999};
  EXPECT_EQ(generator->sample_path(other, 60.0).trace.rates(),
            replayed.trace.rates());
  std::remove(path.c_str());
}

TEST(TraceReplay, DrivesAFullSimulatedSession) {
  // Acceptance: a Mahimahi-style trace file round-trips through save/load
  // and drives a full simulated session end to end.
  Rng trace_rng{33};
  const NetworkPath source =
      FccTraceModel{}.sample_path(trace_rng, 1800.0);
  const TraceFile file = TraceFile::from_trace(source.trace);
  const std::string path = ::testing::TempDir() + "/session.trace";
  file.save(path);
  ASSERT_EQ(TraceFile::load(path), file);

  exp::TrialConfig config;
  config.schemes = {"BBA"};
  config.sessions_per_scheme = 8;
  config.seed = 21;
  config.scenario = ScenarioSpec{"trace-replay", path};
  const exp::SchemeArtifacts none;
  const exp::TrialResult trial = exp::run_trial(config, none);

  const auto& result = trial.result_for("BBA");
  EXPECT_EQ(result.consort.sessions, 8);
  EXPECT_GT(result.consort.considered, 0);
  for (const auto& figures : result.considered) {
    EXPECT_GT(figures.watch_time_s, 0.0);
    // The FCC trace is capped at 12 Mbit/s; delivery rates must respect the
    // replayed capacity.
    EXPECT_LT(figures.mean_delivery_rate_mbps, 13.0);
  }
  std::remove(path.c_str());
}

TEST(TraceReplay, TrialOverEveryFamilyProducesConsideredStreams) {
  // Every registered synthetic family can drive the full trial machinery.
  for (const auto& family : kBuiltinSynthetic) {
    exp::TrialConfig config;
    config.schemes = {"BBA"};
    config.sessions_per_scheme = 6;
    config.seed = 5;
    config.scenario = ScenarioSpec{family};
    const exp::SchemeArtifacts none;
    const exp::TrialResult trial = exp::run_trial(config, none);
    EXPECT_EQ(trial.result_for("BBA").consort.sessions, 6) << family;
    EXPECT_GT(trial.result_for("BBA").consort.streams, 0) << family;
  }
}

}  // namespace
}  // namespace puffer::net
