#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "abr/bba.hh"
#include "exp/fleet_trial.hh"
#include "exp/registry.hh"
#include "exp/trial.hh"
#include "fugu/batch_ttp.hh"
#include "fugu/fugu.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "oracles/ttp_reference.hh"
#include "sim/arrivals.hh"
#include "sim/fleet.hh"
#include "stats/load_series.hh"
#include "test_helpers.hh"
#include "util/require.hh"

namespace puffer {
namespace {

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

TEST(Arrivals, PoissonMatchesRequestedRate) {
  const sim::ArrivalProcess arrivals{2.0};
  Rng rng{1};
  const std::vector<double> times = sim::sample_arrivals(arrivals, rng, 4000);
  ASSERT_EQ(times.size(), 4000u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  // Mean inter-arrival should be ~1/rate = 0.5 s.
  EXPECT_NEAR(times.back() / 4000.0, 0.5, 0.05);
}

TEST(Arrivals, DeterministicGivenSeed) {
  const sim::ArrivalSpec spec;
  const auto process = sim::make_arrival_process(spec);
  Rng rng_a{7}, rng_b{7};
  const auto a = sim::sample_arrivals(*process, rng_a, 200);
  const auto b = sim::sample_arrivals(*process, rng_b, 200);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]));
  }
}

/// The first arrivals of the fleet's arrival stream for seed 20190119 at
/// 0.05/s, pinned bit for bit: every fleet trial's schedule derives from
/// this sampler, so any change to its draws would move every result.
TEST(Arrivals, FirstArrivalTimesPinned) {
  sim::ArrivalSpec spec;
  spec.rate_per_s = 0.05;
  const auto process = sim::make_arrival_process(spec);
  Rng rng = Rng{20190119}.split("fleet-arrivals");
  const std::vector<double> times = sim::sample_arrivals(*process, rng, 5);
  const std::vector<double> pinned = {4.8210740633682461, 61.599410862131897,
                                      80.280104292270593, 83.381932296045591,
                                      83.426301364845926};
  EXPECT_EQ(times, pinned);
}

TEST(Arrivals, UnknownKindRejected) {
  sim::ArrivalSpec spec;
  spec.kind = "carrier-pigeon";
  EXPECT_THROW(static_cast<void>(sim::make_arrival_process(spec)),
               RequirementError);
}

// ---------------------------------------------------------------------------
// Load time series
// ---------------------------------------------------------------------------

using Steps = std::vector<std::pair<double, int>>;

/// The finalized step function, as (time, level) pairs.
Steps steps(const stats::LoadSeries& load) {
  Steps out;
  for (const stats::LoadSeries::Point& p : load.points()) {
    out.emplace_back(p.time_s, p.level);
  }
  return out;
}

TEST(LoadSeries, StepFunctionPeakAndMean) {
  stats::LoadSeries load;
  // Out-of-order insertion: completion discovered before a later arrival.
  load.add(0.0, +1);
  load.add(4.0, -1);
  load.add(1.0, +1);
  load.add(3.0, -1);
  load.finalize();
  EXPECT_EQ(load.peak(), 2);
  EXPECT_EQ(steps(load), (Steps{{0.0, 1}, {1.0, 2}, {3.0, 1}, {4.0, 0}}));
  // Integral: 1*1 + 2*2 + 1*1 over a span of 4.
  EXPECT_NEAR(load.time_weighted_mean(), 6.0 / 4.0, 1e-12);
}

TEST(LoadSeries, SimultaneousDeltasMerge) {
  stats::LoadSeries load;
  load.add(1.0, +1);
  load.add(1.0, -1);  // zero-duration session leaves no trace
  load.finalize();
  EXPECT_TRUE(load.points().empty());
  EXPECT_EQ(load.peak(), 0);
}

TEST(LoadSeries, EmptySeries) {
  stats::LoadSeries load;
  load.finalize();
  EXPECT_EQ(load.peak(), 0);
  EXPECT_DOUBLE_EQ(load.time_weighted_mean(), 0.0);
}

/// Pinned boundary semantics: queries on an empty series (even one never
/// finalized) are defined, and the step function starts at the first event
/// (the level before it is 0).
TEST(LoadSeries, BoundaryQueriesArePinned) {
  const stats::LoadSeries untouched;
  EXPECT_EQ(untouched.peak(), 0);
  EXPECT_DOUBLE_EQ(untouched.time_weighted_mean(), 0.0);
  EXPECT_TRUE(untouched.points().empty());

  stats::LoadSeries load;
  load.add(12.0, -1);
  load.add(10.0, +1);
  EXPECT_THROW(static_cast<void>(load.points()), RequirementError);
  load.finalize();
  EXPECT_EQ(steps(load), (Steps{{10.0, 1}, {12.0, 0}}));
}

/// Pinned boundary semantics: a single-point (zero-span) series has a
/// defined mean — the level it ends at — instead of a 0/0 division.
TEST(LoadSeries, SinglePointMeanIsItsLevel) {
  stats::LoadSeries load;
  load.add(2.0, +1);
  load.finalize();
  ASSERT_EQ(load.points().size(), 1u);
  EXPECT_EQ(load.peak(), 1);
  EXPECT_DOUBLE_EQ(load.time_weighted_mean(), 1.0);

  // Same-time deltas merge, so several events can still leave one point.
  stats::LoadSeries merged;
  merged.add(5.0, +1);
  merged.add(5.0, +1);
  merged.add(5.0, +1);
  merged.finalize();
  ASSERT_EQ(merged.points().size(), 1u);
  EXPECT_DOUBLE_EQ(merged.time_weighted_mean(), 3.0);
}

/// merge_from reproduces the combined series exactly — the finalized series
/// is a function of the delta multiset, however it was partitioned (this is
/// what makes the sharded engine's merged load bit-identical).
TEST(LoadSeries, MergeFromMatchesCombinedSeries) {
  stats::LoadSeries combined, shard_a, shard_b;
  const auto add_all = [](stats::LoadSeries& series,
                          std::initializer_list<std::pair<double, int>> events) {
    for (const auto& [t, d] : events) {
      series.add(t, d);
    }
  };
  add_all(combined, {{0.0, +1}, {4.0, -1}, {1.0, +1}, {3.0, -1}, {1.0, +1},
                     {2.5, -1}});
  add_all(shard_a, {{0.0, +1}, {4.0, -1}, {1.0, +1}, {2.5, -1}});
  add_all(shard_b, {{1.0, +1}, {3.0, -1}});
  combined.finalize();

  stats::LoadSeries merged;
  merged.merge_from(shard_a);
  merged.merge_from(shard_b);
  merged.finalize();

  ASSERT_EQ(merged.points().size(), combined.points().size());
  for (size_t i = 0; i < merged.points().size(); i++) {
    EXPECT_EQ(std::bit_cast<uint64_t>(merged.points()[i].time_s),
              std::bit_cast<uint64_t>(combined.points()[i].time_s));
    EXPECT_EQ(merged.points()[i].level, combined.points()[i].level);
  }
  EXPECT_EQ(merged.peak(), combined.peak());
  EXPECT_EQ(std::bit_cast<uint64_t>(merged.time_weighted_mean()),
            std::bit_cast<uint64_t>(combined.time_weighted_mean()));
}

/// A series is built, finalized once, then read: adding or merging after
/// finalize() is refused, and finalizing again changes nothing.
TEST(LoadSeries, AddAfterFinalizeIsRejected) {
  stats::LoadSeries load;
  load.add(0.0, +1);
  load.add(2.0, -1);
  load.finalize();
  EXPECT_THROW(load.add(1.0, +1), RequirementError);

  stats::LoadSeries pending;
  pending.add(1.0, +1);
  EXPECT_THROW(load.merge_from(pending), RequirementError);
  EXPECT_THROW(pending.merge_from(load), RequirementError);
  EXPECT_THROW(pending.merge_from(pending), RequirementError);

  load.finalize();
  EXPECT_EQ(steps(load), (Steps{{0.0, 1}, {2.0, 0}}));
  EXPECT_EQ(load.peak(), 1);
}

// ---------------------------------------------------------------------------
// Batched TTP inference
// ---------------------------------------------------------------------------

void expect_same_distribution(const abr::TxTimeDistribution& a,
                              const abr::TxTimeDistribution& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i].time_s),
              std::bit_cast<uint64_t>(b[i].time_s));
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i].probability),
              std::bit_cast<uint64_t>(b[i].probability));
  }
}

abr::AbrObservation fake_observation(const uint64_t seed) {
  Rng rng{seed};
  abr::AbrObservation obs;
  obs.buffer_s = rng.uniform(0.0, 15.0);
  obs.tcp.cwnd_pkts = rng.uniform(10.0, 300.0);
  obs.tcp.in_flight_pkts = rng.uniform(0.0, 200.0);
  obs.tcp.min_rtt_s = rng.uniform(0.01, 0.3);
  obs.tcp.srtt_s = rng.uniform(0.01, 0.4);
  obs.tcp.delivery_rate_bps = rng.uniform(1e5, 5e7);
  return obs;
}

fugu::TtpHistory fake_history(const uint64_t seed, const int chunks) {
  Rng rng{seed};
  fugu::TtpHistory history;
  for (int i = 0; i < chunks; i++) {
    history.record(rng.uniform(0.1, 4.0), rng.uniform(0.05, 3.0),
                   fugu::kTtpHistory);
  }
  return history;
}

std::vector<abr::TxTimeQuery> fake_queries(const uint64_t seed) {
  Rng rng{seed};
  std::vector<abr::TxTimeQuery> queries;
  for (int step = 0; step < 5; step++) {
    for (int rung = 0; rung < media::kNumRungs; rung++) {
      queries.push_back({step, rng.uniform_int(50'000, 6'000'000)});
    }
  }
  return queries;
}

/// Acceptance criterion (c): the fused matrix-matrix path answers exactly
/// what the scalar forward_one path answers, bit for bit.
TEST(BatchTtp, PredictBatchMatchesScalarForwardOne) {
  const auto model = std::make_shared<fugu::TtpModel>(fugu::TtpConfig{}, 42);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    oracle::ScalarTtpPredictor scalar{model};
    fugu::BatchTtpPredictor batched{model};
    const abr::AbrObservation obs = fake_observation(seed);
    const fugu::TtpHistory history = fake_history(seed, 6);
    for (int i = 0; i < 6; i++) {
      abr::ChunkRecord record;
      record.size_bytes = static_cast<int64_t>(history.sizes_mb[i] * 1e6);
      record.transmission_time_s = history.tx_times_s[i];
      scalar.on_chunk_complete(record);
      batched.on_chunk_complete(record);
    }
    scalar.begin_decision(obs);
    batched.begin_decision(obs);

    const std::vector<abr::TxTimeQuery> queries = fake_queries(seed);
    std::vector<abr::TxTimeDistribution> scalar_out, batched_out;
    scalar.predict_batch(queries, scalar_out);    // default loop over predict()
    batched.predict_batch(queries, batched_out);  // one GEMM per step-network
    ASSERT_EQ(scalar_out.size(), batched_out.size());
    for (size_t i = 0; i < scalar_out.size(); i++) {
      expect_same_distribution(scalar_out[i], batched_out[i]);
    }
    // The scalar predict() entry point agrees too.
    expect_same_distribution(scalar.predict(2, 1'234'567),
                             batched.predict(2, 1'234'567));
  }
}

TEST(BatchTtp, PointEstimateVariantMatches) {
  const auto model = std::make_shared<fugu::TtpModel>(fugu::TtpConfig{}, 7);
  oracle::ScalarTtpPredictor scalar{model, /*point_estimate=*/true};
  fugu::BatchTtpPredictor batched{model, /*point_estimate=*/true};
  const abr::AbrObservation obs = fake_observation(11);
  scalar.begin_decision(obs);
  batched.begin_decision(obs);
  const std::vector<abr::TxTimeQuery> queries = fake_queries(11);
  std::vector<abr::TxTimeDistribution> scalar_out, batched_out;
  scalar.predict_batch(queries, scalar_out);
  batched.predict_batch(queries, batched_out);
  ASSERT_EQ(scalar_out.size(), batched_out.size());
  for (size_t i = 0; i < scalar_out.size(); i++) {
    ASSERT_EQ(batched_out[i].size(), 1u);
    expect_same_distribution(scalar_out[i], batched_out[i]);
  }
}

/// Cross-session coalescing: several sessions staged into one shared batch
/// (one GEMM across all of them per step-network) answer exactly what each
/// would have answered alone.
TEST(BatchTtp, SharedBatchCoalescesAcrossSessionsExactly) {
  const auto model = std::make_shared<fugu::TtpModel>(fugu::TtpConfig{}, 9);
  media::VbrVideoSource video{media::default_channels()[0], 21};
  std::vector<media::ChunkOptions> lookahead;
  for (int k = 0; k < 5; k++) {
    lookahead.push_back(video.chunk_options(k));
  }
  // MPC's query order over this lookahead.
  std::vector<abr::TxTimeQuery> queries;
  for (int step = 0; step < 5; step++) {
    for (int rung = 0; rung < media::kNumRungs; rung++) {
      queries.push_back(
          {step, lookahead[static_cast<size_t>(step)].version(rung).size_bytes});
    }
  }

  constexpr int kSessions = 5;
  fugu::TtpInferenceBatch shared;
  std::vector<std::unique_ptr<fugu::BatchTtpPredictor>> staged_predictors;
  for (int s = 0; s < kSessions; s++) {
    auto predictor = std::make_unique<fugu::BatchTtpPredictor>(model);
    const abr::AbrObservation obs = fake_observation(100 + s);
    predictor->begin_decision(obs);
    predictor->stage(obs, lookahead, /*horizon=*/5, shared);
    staged_predictors.push_back(std::move(predictor));
  }
  EXPECT_EQ(shared.rows_pending(), kSessions * 5 * media::kNumRungs);
  shared.run();
  EXPECT_EQ(shared.total_forward_calls(), 5);  // one GEMM per step-network

  for (int s = 0; s < kSessions; s++) {
    fugu::BatchTtpPredictor alone{model};
    const abr::AbrObservation obs = fake_observation(100 + s);
    alone.begin_decision(obs);
    std::vector<abr::TxTimeDistribution> expected, coalesced;
    alone.predict_batch(queries, expected);
    staged_predictors[static_cast<size_t>(s)]->predict_batch(queries,
                                                             coalesced);
    ASSERT_EQ(expected.size(), coalesced.size());
    for (size_t i = 0; i < expected.size(); i++) {
      expect_same_distribution(expected[i], coalesced[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet trials
// ---------------------------------------------------------------------------

using test::expect_identical;
using test::expect_same_bits;
using test::metric_value;
using test::run_sessions_in_order;

/// Schemes exercising all three decision paths: coalesced learned inference
/// (Fugu via BatchTtpPredictor), classical MPC (default predict_batch) and
/// a predictor-free scheme.
exp::SchemeFactory fleet_factory() {
  static const auto model =
      std::make_shared<fugu::TtpModel>(fugu::TtpConfig{}, 20190119);
  return [](const std::string& name) -> std::unique_ptr<abr::AbrAlgorithm> {
    if (name == "Fugu") {
      return fugu::make_fugu(model, name);
    }
    return exp::make_scheme(name, exp::SchemeArtifacts{});
  };
}

exp::FleetTrialConfig fleet_config() {
  exp::FleetTrialConfig config;
  config.trial.schemes = {"Fugu", "MPC-HM", "BBA"};
  config.trial.sessions_per_scheme = 5;
  config.trial.seed = 20190119;
  config.trial.collect_logs = true;
  config.trial.day = 1;
  config.trial.num_threads = 1;
  config.trial.stream.max_stream_chunks = 60;  // bound Pareto-tail streams
  config.arrivals.kind = "poisson";
  config.arrivals.rate_per_s = 0.05;  // sessions overlap heavily
  return config;
}

/// Acceptance criterion (a): the fleet interleaving of non-interacting
/// sessions is figure-identical to the serial oracle — and so is run_trial,
/// the back-to-back fleet run, at any thread count.
TEST(FleetTrial, MatchesSequentialBaselineInRctMode) {
  exp::FleetTrialConfig config = fleet_config();
  const exp::TrialResult sequential =
      run_sessions_in_order(config.trial, fleet_factory());
  const exp::FleetTrialResult fleet =
      exp::run_fleet_trial(config, fleet_factory());
  expect_identical(sequential, fleet.trial);
  for (const int threads : {1, 3}) {
    config.trial.num_threads = threads;
    expect_identical(sequential, exp::run_trial(config.trial, fleet_factory()));
  }

  const int64_t total =
      static_cast<int64_t>(config.trial.schemes.size()) *
      config.trial.sessions_per_scheme;
  EXPECT_EQ(fleet.fleet.sessions, total);
  // One engine task per session.
  EXPECT_EQ(metric_value(fleet.metrics, "fleet.arrivals"), total);
  EXPECT_GT(fleet.fleet.decisions, 0);
  EXPECT_GT(fleet.fleet.gemm_calls, 0);       // Fugu sessions coalesced
  EXPECT_GT(fleet.fleet.coalesced_rows, 0);
  EXPECT_GT(fleet.fleet.inline_decisions, 0);  // BBA / MPC-HM ran inline
  EXPECT_GE(fleet.fleet.load.peak(), 2);       // sessions actually overlapped
  EXPECT_LE(fleet.fleet.load.peak(), total);
  EXPECT_GT(fleet.fleet.virtual_duration_s, 0.0);
}

/// Paired replay is run_trial's one single-scheme trial per scheme on one
/// seed, bit-identical to the serial oracle replaying each plan for every
/// scheme at any thread count — also with fewer plans than shards, which
/// leaves some of each trial's shards empty.
TEST(FleetTrial, PairedRunTrialMatchesSequentialBaseline) {
  exp::TrialConfig trial = fleet_config().trial;
  trial.paired_paths = true;
  for (const int plans : {4, 1}) {
    trial.sessions_per_scheme = plans;
    const exp::TrialResult sequential =
        run_sessions_in_order(trial, fleet_factory());
    for (const int threads : {1, 3}) {
      trial.num_threads = threads;
      expect_identical(sequential, exp::run_trial(trial, fleet_factory()));
    }
  }
}

/// run_trial's fleet run: kBackToBackShardsPerThread shards per worker (4
/// at one thread, 12 at three), bit-identical to the serial oracle.
TEST(FleetTrial, BackToBackRunsFourShardsPerThread) {
  exp::TrialConfig trial = fleet_config().trial;
  const exp::TrialResult sequential =
      run_sessions_in_order(trial, fleet_factory());
  for (const int threads : {1, 3}) {
    trial.num_threads = threads;
    const exp::FleetTrialConfig config = exp::back_to_back(trial);
    EXPECT_EQ(config.num_shards, 4 * threads);
    const exp::FleetTrialResult fleet =
        exp::run_fleet_trial(config, fleet_factory());
    EXPECT_EQ(fleet.fleet.num_shards, config.num_shards);
    EXPECT_EQ(fleet.fleet.num_workers, threads);
    expect_identical(sequential, fleet.trial);
  }
}

/// Acceptance criterion (b): bit-identical results at any thread count —
/// including the load series the engine records. Pinned to four shards so
/// the runs really are threaded and the batching counters are comparable
/// too: at a fixed shard count, batch membership is thread-count-invariant
/// (each shard runs serially on whichever worker drives it).
TEST(FleetTrial, BitIdenticalAcrossThreadCounts) {
  exp::FleetTrialConfig config = fleet_config();
  config.num_shards = 4;
  const exp::FleetTrialResult one = exp::run_fleet_trial(config, fleet_factory());
  EXPECT_EQ(one.fleet.num_workers, 1);
  for (const int threads : {2, 4}) {
    config.trial.num_threads = threads;
    const exp::FleetTrialResult many =
        exp::run_fleet_trial(config, fleet_factory());
    EXPECT_EQ(many.fleet.num_workers, threads);
    expect_identical(one.trial, many.trial);
    EXPECT_EQ(one.fleet.decisions, many.fleet.decisions);
    EXPECT_EQ(one.fleet.inline_decisions, many.fleet.inline_decisions);
    EXPECT_EQ(one.fleet.coalesced_rows, many.fleet.coalesced_rows);
    EXPECT_EQ(one.fleet.gemm_calls, many.fleet.gemm_calls);
    ASSERT_EQ(one.fleet.load.points().size(), many.fleet.load.points().size());
    for (size_t i = 0; i < one.fleet.load.points().size(); i++) {
      expect_same_bits(one.fleet.load.points()[i].time_s,
                       many.fleet.load.points()[i].time_s);
      EXPECT_EQ(one.fleet.load.points()[i].level,
                many.fleet.load.points()[i].level);
    }
  }
}

/// Tentpole acceptance: sharding is invisible to results. 1/2/4/8 shards,
/// each with its own batch membership, all bit-identical to the sequential
/// baseline — including the merged load series and the partition-invariant
/// engine stats. (The batching counters are *not* compared across shard
/// counts: batch membership is shard-local by design.)
TEST(FleetTrial, BitIdenticalAcrossShardCounts) {
  const exp::TrialResult sequential =
      run_sessions_in_order(fleet_config().trial, fleet_factory());
  exp::FleetTrialConfig config = fleet_config();
  config.trial.num_threads = 4;
  config.num_shards = 1;
  const exp::FleetTrialResult one =
      exp::run_fleet_trial(config, fleet_factory());
  expect_identical(sequential, one.trial);
  for (const int shards : {2, 4, 8}) {
    config.num_shards = shards;
    const exp::FleetTrialResult sharded =
        exp::run_fleet_trial(config, fleet_factory());
    EXPECT_EQ(sharded.fleet.num_shards, shards);
    expect_identical(sequential, sharded.trial);
    EXPECT_EQ(one.fleet.sessions, sharded.fleet.sessions);
    EXPECT_EQ(one.fleet.decisions, sharded.fleet.decisions);
    expect_same_bits(one.fleet.virtual_duration_s,
                     sharded.fleet.virtual_duration_s);
    EXPECT_EQ(one.fleet.load.peak(), sharded.fleet.load.peak());
    expect_same_bits(one.fleet.load.time_weighted_mean(),
                     sharded.fleet.load.time_weighted_mean());
    ASSERT_EQ(one.fleet.load.points().size(),
              sharded.fleet.load.points().size());
    for (size_t i = 0; i < one.fleet.load.points().size(); i++) {
      expect_same_bits(one.fleet.load.points()[i].time_s,
                       sharded.fleet.load.points()[i].time_s);
      EXPECT_EQ(one.fleet.load.points()[i].level,
                sharded.fleet.load.points()[i].level);
    }
  }
}

/// Kill mid-merge: a scheme factory that fails partway through a sharded
/// run (while other shards are mid-flight and the streaming merge frontier
/// is active) must propagate the failure out of run_fleet_trial — no
/// deadlock, no partially-merged result returned.
TEST(FleetTrial, FactoryFailureMidRunPropagates) {
  exp::FleetTrialConfig config = fleet_config();
  config.trial.num_threads = 2;
  config.num_shards = 2;
  const exp::SchemeFactory broken =
      [](const std::string& name) -> std::unique_ptr<abr::AbrAlgorithm> {
    if (name == "BBA") {
      return nullptr;  // run_fleet_trial's require() fires on a shard worker
    }
    return fleet_factory()(name);
  };
  EXPECT_THROW(static_cast<void>(exp::run_fleet_trial(config, broken)),
               RequirementError);

  // An unknown scheme makes the registry factory throw on a shard worker;
  // run_trial surfaces it too.
  config.trial.schemes = {"HAL9000"};
  config.trial.num_threads = 4;
  EXPECT_THROW(
      static_cast<void>(exp::run_trial(config.trial, exp::SchemeArtifacts{})),
      RequirementError);
}

/// Exception-propagation determinism: the engine runs one job per shard,
/// and ThreadPool::run selects the rethrown exception by job index — so
/// even when a *higher* shard fails first on the wall clock, the lowest
/// failing shard's error is the one observed, every time.
class ExplodingTask final : public sim::FleetTask {
 public:
  ExplodingTask(std::string message, const int decisions_before_failure)
      : message_(std::move(message)), remaining_(decisions_before_failure) {}

  Step prepare() override {
    if (remaining_ <= 0) {
      throw std::runtime_error(message_);
    }
    return Step::kDecision;
  }
  bool stage(fugu::TtpInferenceBatch& /*batch*/) override { return false; }
  void finish_chunk() override {
    remaining_--;
    elapsed_ += 1.0;
  }
  [[nodiscard]] double elapsed_s() const override { return elapsed_; }

 private:
  std::string message_;
  int remaining_;
  double elapsed_ = 0.0;
};

TEST(FleetEngine, ShardFailureSelectsLowestShardDeterministically) {
  sim::FleetConfig config;
  config.num_threads = 2;
  config.num_shards = 2;
  const std::vector<double> arrivals = {0.0, 0.0, 0.0, 0.0};
  const auto factory = [](const int64_t /*session*/,
                          const int shard) -> std::unique_ptr<sim::FleetTask> {
    // Shard 0 fails only after 200 decisions (late on the wall clock);
    // shard 1 fails at its very first arrival.
    if (shard == 0) {
      return std::make_unique<ExplodingTask>("shard-0 failed", 200);
    }
    return std::make_unique<ExplodingTask>("shard-1 failed", 0);
  };
  for (int iteration = 0; iteration < 10; iteration++) {
    try {
      static_cast<void>(sim::FleetEngine{config}.run(arrivals, factory));
      FAIL() << "run() must rethrow the failing shard's exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "shard-0 failed");
    }
  }
}

// ---------------------------------------------------------------------------
// Contention groups (shared bottlenecks)
// ---------------------------------------------------------------------------

exp::FleetTrialConfig contention_config(const std::string& topology,
                                        const int group_size) {
  exp::FleetTrialConfig config = fleet_config();
  config.trial.scenario = net::ScenarioSpec{"edge-contention"};
  config.contention = exp::make_contention_spec(topology, group_size);
  return config;
}

/// Tentpole acceptance: contention groups are single engine tasks, so the
/// fleet == sequential bitwise contract survives any shard count and thread
/// count with shared bottlenecks in play — results, load series, and the
/// per-group fairness indices all bit-identical.
TEST(FleetTrial, ContentionBitIdenticalAcrossShardAndThreadCounts) {
  exp::FleetTrialConfig config = contention_config("edge", 4);
  config.num_shards = 1;
  const exp::FleetTrialResult baseline =
      exp::run_fleet_trial(config, fleet_factory());
  ASSERT_FALSE(baseline.group_fairness.empty());
  for (const int shards : {1, 2, 4, 8}) {
    for (const int threads : {2, 4}) {
      config.num_shards = shards;
      config.trial.num_threads = threads;
      const exp::FleetTrialResult run =
          exp::run_fleet_trial(config, fleet_factory());
      expect_identical(baseline.trial, run.trial);
      EXPECT_EQ(baseline.fleet.sessions, run.fleet.sessions);
      EXPECT_EQ(baseline.fleet.decisions, run.fleet.decisions);
      expect_same_bits(baseline.fleet.virtual_duration_s,
                       run.fleet.virtual_duration_s);
      ASSERT_EQ(baseline.fleet.load.points().size(),
                run.fleet.load.points().size());
      for (size_t i = 0; i < baseline.fleet.load.points().size(); i++) {
        expect_same_bits(baseline.fleet.load.points()[i].time_s,
                         run.fleet.load.points()[i].time_s);
        EXPECT_EQ(baseline.fleet.load.points()[i].level,
                  run.fleet.load.points()[i].level);
      }
      ASSERT_EQ(baseline.group_fairness.size(), run.group_fairness.size());
      for (size_t g = 0; g < baseline.group_fairness.size(); g++) {
        expect_same_bits(baseline.group_fairness[g], run.group_fairness[g]);
      }
    }
  }
}

/// Shape and sanity of a contention run: one group per group_size plans,
/// every session still counted, fairness indices in (0, 1].
TEST(FleetTrial, ContentionGroupShapeAndFairness) {
  for (const char* topology : {"edge", "tower", "wifi"}) {
    const exp::FleetTrialConfig config = contention_config(topology, 4);
    const exp::FleetTrialResult result =
        exp::run_fleet_trial(config, fleet_factory());
    const int64_t total = static_cast<int64_t>(config.trial.schemes.size()) *
                          config.trial.sessions_per_scheme;
    EXPECT_EQ(result.fleet.sessions, total);
    EXPECT_EQ(result.group_fairness.size(),
              static_cast<size_t>((total + 3) / 4));
    // One engine task per group, and one fairness observation per group.
    EXPECT_EQ(metric_value(result.metrics, "fleet.arrivals"),
              static_cast<int64_t>(result.group_fairness.size()));
    const obs::MetricSnapshot::Metric* fairness =
        result.metrics.find("contention.fairness");
    ASSERT_NE(fairness, nullptr);
    EXPECT_EQ(fairness->count,
              static_cast<int64_t>(result.group_fairness.size()));
    int64_t consort_sessions = 0;
    for (const auto& scheme : result.trial.schemes) {
      consort_sessions += scheme.consort.sessions;
    }
    EXPECT_EQ(consort_sessions, total);
    for (const double fairness : result.group_fairness) {
      EXPECT_GT(fairness, 0.0);
      EXPECT_LE(fairness, 1.0);
    }
  }
}

/// The fleet runs RCT trials only: it refuses paired_paths on private paths
/// and behind shared bottlenecks alike (where the paired design would also
/// put one plan's per-scheme copies behind one link), and names run_trial,
/// which runs paired replay.
TEST(FleetTrial, RejectsPairedMode) {
  for (exp::FleetTrialConfig config :
       {fleet_config(), contention_config("edge", 2)}) {
    config.trial.paired_paths = true;
    test::expect_rejected(
        [&] {
          static_cast<void>(exp::run_fleet_trial(config, fleet_factory()));
        },
        {"paired_paths", "run_trial"});
  }
}

/// A topology is a row of the preset table; anything else is refused with
/// the known ones listed.
TEST(FleetTrial, ContentionRejectsUnknownTopology) {
  exp::FleetTrialConfig config = contention_config("edge", 4);
  config.contention.topology = "mars";
  test::expect_rejected(
      [&] {
        static_cast<void>(exp::run_fleet_trial(config, fleet_factory()));
      },
      {"'mars'", "edge, tower, wifi"});
  test::expect_rejected(
      [] { static_cast<void>(exp::make_contention_spec("mars", 4)); },
      {"'mars'", "edge, tower, wifi"});
}

// ---------------------------------------------------------------------------
// Observability: sim-plane metric snapshots and virtual-time traces
// ---------------------------------------------------------------------------

/// The sim-plane metric snapshot is part of the bitwise determinism
/// surface. At a fixed shard count the full snapshot — shard-local metrics
/// included, since the partition itself is fixed — must be identical at
/// any worker-thread count (1/2/4), per-shard snapshots too. Across shard
/// counts (1/2/4/8) the partition-invariant view still matches bit for
/// bit.
TEST(FleetTrial, MetricSnapshotsBitIdenticalAcrossShardAndThreadMatrix) {
  exp::FleetTrialConfig config = fleet_config();

  obs::MetricSnapshot invariant_baseline;
  for (const int shards : {1, 2, 4, 8}) {
    config.num_shards = shards;
    config.trial.num_threads = 1;
    const exp::FleetTrialResult baseline =
        exp::run_fleet_trial(config, fleet_factory());
    ASSERT_EQ(baseline.fleet.shard_metrics.size(),
              static_cast<size_t>(shards));
    // Spot-check that the snapshot actually carries the engine and trial
    // planes before comparing: an empty-vs-empty EQ would prove nothing.
    ASSERT_NE(baseline.metrics.find("fleet.decisions"), nullptr);
    ASSERT_NE(baseline.metrics.find("faults.session_aborts"), nullptr);
    if (shards == 1) {
      invariant_baseline = baseline.metrics.deterministic_view(false);
      ASSERT_FALSE(invariant_baseline.metrics.empty());
    } else {
      EXPECT_EQ(baseline.metrics.deterministic_view(false),
                invariant_baseline);
    }
    for (const int threads : {2, 4}) {
      config.trial.num_threads = threads;
      const exp::FleetTrialResult run =
          exp::run_fleet_trial(config, fleet_factory());
      EXPECT_EQ(run.metrics.deterministic_view(true),
                baseline.metrics.deterministic_view(true));
      EXPECT_EQ(run.fleet.shard_metrics, baseline.fleet.shard_metrics);
    }
  }
}

/// The engine renders virtual-time trace events into per-shard buffers and
/// splices them in ascending shard order after the join, so the trace JSON
/// is byte-identical across repeat runs and across worker-thread counts.
TEST(FleetTrial, VirtualTimeTraceByteIdenticalAcrossRepeatRuns) {
  const auto traced_run = [](const int threads) {
    exp::FleetTrialConfig config = fleet_config();
    config.num_shards = 4;
    config.trial.num_threads = threads;
    obs::TraceWriter trace;
    config.trace = &trace;
    static_cast<void>(exp::run_fleet_trial(config, fleet_factory()));
    return trace.str();
  };
  const std::string first = traced_run(1);
  EXPECT_GT(first.size(), 1000u);
  EXPECT_EQ(first, traced_run(1));
  EXPECT_EQ(first, traced_run(4));
}

/// Zero or negative sessions_per_scheme yields an empty trial (every
/// scheme present, no sessions) on the fleet and run_trial alike.
TEST(FleetTrial, EmptyTrialIsFine) {
  exp::FleetTrialConfig config = fleet_config();
  for (const int sessions : {0, -3}) {
    config.trial.sessions_per_scheme = sessions;
    const exp::FleetTrialResult result =
        exp::run_fleet_trial(config, fleet_factory());
    EXPECT_EQ(result.fleet.sessions, 0);
    EXPECT_EQ(result.fleet.decisions, 0);
    const exp::TrialResult trial =
        exp::run_trial(config.trial, fleet_factory());
    ASSERT_EQ(trial.schemes.size(), config.trial.schemes.size());
    for (const auto& scheme : trial.schemes) {
      EXPECT_EQ(scheme.consort.sessions, 0);
      EXPECT_TRUE(scheme.considered.empty());
    }
    for (const auto& scheme : result.trial.schemes) {
      EXPECT_EQ(scheme.consort.sessions, 0);
    }
  }
}

}  // namespace
}  // namespace puffer
