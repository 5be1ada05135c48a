#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "abr/mpc.hh"
#include "abr/mpc_abr.hh"
#include "abr/throughput_predictors.hh"
#include "oracles/mpc_reference.hh"
#include "test_helpers.hh"
#include "util/require.hh"
#include "util/rng.hh"

namespace puffer::abr {
namespace {

using test::make_lookahead;
using test::record_at_throughput;

/// Predictor whose behaviour is fully scripted by the test.
class ScriptedPredictor final : public TxTimePredictor {
 public:
  explicit ScriptedPredictor(
      std::function<TxTimeDistribution(int, int64_t)> fn)
      : fn_(std::move(fn)) {}

  void begin_decision(const AbrObservation&) override {}
  TxTimeDistribution predict(const int step, const int64_t size) override {
    return fn_(step, size);
  }
  void on_chunk_complete(const ChunkRecord&) override {}
  void reset_session() override {}

 private:
  std::function<TxTimeDistribution(int, int64_t)> fn_;
};

ScriptedPredictor constant_throughput(const double bps) {
  return ScriptedPredictor{[bps](int, const int64_t size) {
    return TxTimeDistribution{
        {static_cast<double>(size) / bps, 1.0}};
  }};
}

TEST(Mpc, FastNetworkFullBufferPicksTopRung) {
  StochasticMpc mpc;
  ScriptedPredictor predictor = constant_throughput(100e6 / 8.0);  // 100 Mbps
  AbrObservation obs;
  obs.buffer_s = 14.0;
  obs.prev_ssim_db = 17.0;
  const auto lookahead = make_lookahead(5);
  EXPECT_EQ(mpc.plan(obs, lookahead, predictor), media::kNumRungs - 1);
}

TEST(Mpc, SlowNetworkEmptyBufferPicksBottomRung) {
  StochasticMpc mpc;
  ScriptedPredictor predictor = constant_throughput(0.3e6 / 8.0);  // 0.3 Mbps
  AbrObservation obs;
  obs.buffer_s = 0.0;
  obs.prev_ssim_db = -1.0;
  const auto lookahead = make_lookahead(5);
  EXPECT_EQ(mpc.plan(obs, lookahead, predictor), 0);
}

TEST(Mpc, ChoiceMonotoneInThroughput) {
  StochasticMpc mpc;
  AbrObservation obs;
  obs.buffer_s = 8.0;
  obs.prev_ssim_db = 14.0;
  const auto lookahead = make_lookahead(5);
  int prev_choice = 0;
  for (const double mbps : {0.3, 1.0, 2.0, 4.0, 8.0, 20.0, 60.0}) {
    ScriptedPredictor predictor = constant_throughput(mbps * 1e6 / 8.0);
    const int choice = mpc.plan(obs, lookahead, predictor);
    EXPECT_GE(choice, prev_choice) << "at " << mbps << " Mbps";
    prev_choice = choice;
  }
  EXPECT_EQ(prev_choice, media::kNumRungs - 1);
}

TEST(Mpc, StallPenaltyDominatesNearEmptyBuffer) {
  // At ~2 Mbit/s with 0.5 s of buffer, sending a top-rung (5.5 Mbit/s) chunk
  // stalls for seconds; MPC must not pick it even though its quality is best.
  StochasticMpc mpc;
  ScriptedPredictor predictor = constant_throughput(2e6 / 8.0);
  AbrObservation obs;
  obs.buffer_s = 0.5;
  obs.prev_ssim_db = 16.0;
  const auto lookahead = make_lookahead(5);
  const int choice = mpc.plan(obs, lookahead, predictor);
  EXPECT_LE(choice, 2);
}

TEST(Mpc, QualityVariationPenaltySmoothsSwitches) {
  // Previous chunk was low quality; with a huge lambda the controller must
  // not jump straight to the top even on a fast network.
  MpcConfig smooth_config;
  smooth_config.lambda = 50.0;
  StochasticMpc smooth{smooth_config};
  StochasticMpc plain;  // lambda = 1

  ScriptedPredictor predictor = constant_throughput(100e6 / 8.0);
  AbrObservation obs;
  obs.buffer_s = 10.0;
  obs.prev_ssim_db = 9.0;  // bottom-rung quality
  const auto lookahead = make_lookahead(5);
  const int smooth_choice = smooth.plan(obs, lookahead, predictor);
  const int plain_choice = plain.plan(obs, lookahead, predictor);
  EXPECT_LT(smooth_choice, plain_choice);
}

TEST(Mpc, FirstChunkHasNoVariationPenalty) {
  MpcConfig config;
  config.lambda = 1000.0;  // would crush any switch if prev existed
  StochasticMpc mpc{config};
  ScriptedPredictor predictor = constant_throughput(100e6 / 8.0);
  AbrObservation obs;
  obs.buffer_s = 14.0;
  obs.prev_ssim_db = -1.0;  // no previous chunk
  const auto lookahead = make_lookahead(1);
  EXPECT_EQ(mpc.plan(obs, lookahead, predictor), media::kNumRungs - 1);
}

/// Exhaustive open-loop enumeration. For deterministic (point-mass)
/// predictors, the closed-loop DP optimum and the open-loop optimum agree,
/// so this is an independent oracle for the value iteration.
double brute_force_value(const std::vector<media::ChunkOptions>& lookahead,
                         const int h, const int horizon, const double buffer,
                         const double prev_ssim,
                         const std::function<double(int, int64_t)>& tx_time,
                         const MpcConfig& config, int* best_action) {
  if (h == horizon) {
    return 0.0;
  }
  double best = -1e18;
  for (int a = 0; a < media::kNumRungs; a++) {
    const auto& v = lookahead[static_cast<size_t>(h)].version(a);
    const double t = tx_time(h, v.size_bytes);
    double qoe = v.ssim_db;
    if (prev_ssim >= 0.0) {
      qoe -= config.lambda * std::abs(v.ssim_db - prev_ssim);
    }
    qoe -= config.mu * std::max(t - buffer, 0.0);
    const double next_buffer = std::min(
        std::max(buffer - t, 0.0) + media::kChunkDurationS,
        media::kMaxBufferS);
    const double value =
        qoe + brute_force_value(lookahead, h + 1, horizon, next_buffer,
                                v.ssim_db, tx_time, config, nullptr);
    if (value > best) {
      best = value;
      if (best_action != nullptr) {
        *best_action = a;
      }
    }
  }
  return best;
}

/// Parameterized sweep: value iteration must match brute force across
/// throughputs and buffer levels (with fine buffer bins to make the
/// discretization error negligible).
class MpcVsBruteForce
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MpcVsBruteForce, MatchesExhaustiveSearch) {
  const auto& [mbps, buffer] = GetParam();
  MpcConfig config;
  config.horizon = 3;
  config.buffer_bin_s = 0.02;
  StochasticMpc mpc{config};

  const double bps = mbps * 1e6 / 8.0;
  auto tx_time = [bps](int, const int64_t size) {
    return std::clamp(static_cast<double>(size) / bps, 1e-3, 60.0);
  };
  ScriptedPredictor predictor{[&tx_time](const int step, const int64_t size) {
    return TxTimeDistribution{{tx_time(step, size), 1.0}};
  }};

  AbrObservation obs;
  obs.buffer_s = buffer;
  obs.prev_ssim_db = 14.0;
  const auto lookahead = make_lookahead(3);

  const int mpc_choice = mpc.plan(obs, lookahead, predictor);
  int brute_choice = -1;
  const double brute_value =
      brute_force_value(lookahead, 0, 3, buffer, 14.0, tx_time, config,
                        &brute_choice);

  // The chosen actions' true values must agree closely (ties in value can
  // legitimately flip the argmax, so compare values, not indices).
  int scratch = -1;
  (void)scratch;
  // Compute the true value of MPC's chosen first action under brute force.
  const auto& v = lookahead[0].version(mpc_choice);
  const double t = tx_time(0, v.size_bytes);
  double qoe = v.ssim_db - config.lambda * std::abs(v.ssim_db - 14.0) -
               config.mu * std::max(t - buffer, 0.0);
  const double next_buffer =
      std::min(std::max(buffer - t, 0.0) + media::kChunkDurationS,
               media::kMaxBufferS);
  const double mpc_choice_value =
      qoe + brute_force_value(lookahead, 1, 3, next_buffer, v.ssim_db, tx_time,
                              config, nullptr);
  EXPECT_NEAR(mpc_choice_value, brute_value, 0.35)
      << "mpc picked " << mpc_choice << ", brute force " << brute_choice;
  EXPECT_NEAR(mpc.last_plan_value(), brute_value, 0.35);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpcVsBruteForce,
    ::testing::Combine(::testing::Values(0.5, 1.5, 4.0, 12.0, 50.0),
                       ::testing::Values(0.0, 2.0, 7.0, 14.0)));

/// The heart of Fugu's "prediction with uncertainty" advantage (section 4.6):
/// when the transmission time is bimodal (usually fast, occasionally awful),
/// a point-estimate controller gambles while the stochastic controller hedges.
TEST(Mpc, StochasticHedgesAgainstBimodalRisk) {
  MpcConfig config;
  config.horizon = 1;
  config.lambda = 0.0;  // isolate the stall-risk tradeoff
  StochasticMpc mpc{config};

  // Menu with two rungs that matter: rung 9 (big, great quality) and the
  // rest. Big chunk: 85% fast (0.3 s), 15% disastrous (11 s). Small chunks:
  // always fast.
  auto risky = [](const int /*step*/, const int64_t size) {
    if (size > 1'000'000) {
      return TxTimeDistribution{{0.3, 0.85}, {11.0, 0.15}};
    }
    return TxTimeDistribution{{0.1, 1.0}};
  };
  ScriptedPredictor stochastic_predictor{risky};
  // Point-estimate version: collapse to the most likely outcome.
  ScriptedPredictor point_predictor{[&risky](const int step, const int64_t size) {
    TxTimeDistribution dist = risky(step, size);
    TxTimeOutcome best = dist[0];
    for (const auto& outcome : dist) {
      if (outcome.probability > best.probability) {
        best = outcome;
      }
    }
    return TxTimeDistribution{{best.time_s, 1.0}};
  }};

  AbrObservation obs;
  obs.buffer_s = 3.0;
  obs.prev_ssim_db = 16.0;
  const auto lookahead = make_lookahead(1);

  const int stochastic_choice = mpc.plan(obs, lookahead, stochastic_predictor);
  const int point_choice = mpc.plan(obs, lookahead, point_predictor);

  // Point estimate sees "0.3 s, safe" and takes the top rung; the stochastic
  // controller prices in the 15% * mu * 8 s stall and refuses.
  EXPECT_EQ(point_choice, media::kNumRungs - 1);
  EXPECT_LT(stochastic_choice, media::kNumRungs - 1);

  // And the stochastic choice has higher true expected QoE.
  auto expected_qoe = [&](const int rung) {
    const auto& v = lookahead[0].version(rung);
    double total = 0.0;
    for (const auto& outcome : risky(0, v.size_bytes)) {
      total += outcome.probability *
               (v.ssim_db - 100.0 * std::max(outcome.time_s - 3.0, 0.0));
    }
    return total;
  };
  EXPECT_GT(expected_qoe(stochastic_choice), expected_qoe(point_choice));
}

TEST(Mpc, PrunesNegligibleOutcomesWithoutChangingDecision) {
  MpcConfig tight;
  tight.prune_probability = 1e-3;
  tight.lambda = 0.0;  // distinct per-rung QoE values avoid argmax ties
  MpcConfig none = tight;
  none.prune_probability = 0.0;
  StochasticMpc pruned{tight}, full{none};

  auto noisy = [](const int, const int64_t size) {
    // Two dominant outcomes plus sub-threshold jitter outcomes whose times
    // are close to the dominant ones — genuinely negligible mass AND value.
    TxTimeDistribution dist;
    const double base = static_cast<double>(size) / (2e6 / 8.0);
    dist.push_back({base, 0.60});
    dist.push_back({base * 1.5, 0.3996});
    for (int i = 0; i < 8; i++) {
      dist.push_back({base * (1.0 + 0.05 * i), 0.0004 / 8});
    }
    return dist;
  };
  ScriptedPredictor p1{noisy}, p2{noisy};

  AbrObservation obs;
  obs.buffer_s = 6.0;
  obs.prev_ssim_db = 14.0;
  const auto lookahead = make_lookahead(5);
  const int pruned_choice = pruned.plan(obs, lookahead, p1);
  const int full_choice = full.plan(obs, lookahead, p2);
  EXPECT_EQ(pruned_choice, full_choice);
  EXPECT_NEAR(pruned.last_plan_value(), full.last_plan_value(), 0.2);
}

/// Appends the bit pattern of `value` to `bytes`, low byte first.
void append_bits(std::string& bytes, const double value) {
  const auto bits = std::bit_cast<uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(static_cast<char>(bits >> shift));
  }
}

/// Checks the plan `mpc` just made against the recursive reference
/// (tests/oracles/mpc_reference.hh), which reads the pruned distributions
/// through last_distributions(). The two differ only by floating-point
/// reassociation of the expectation sum, so values match to ~1e-6 and the
/// argmax may flip only on a floating tie.
void expect_matches_reference(
    const StochasticMpc& mpc, const AbrObservation& obs,
    const std::span<const media::ChunkOptions> lookahead, const int rung,
    const int trial) {
  const oracle::ReferencePlan plan =
      oracle::plan_reference(mpc, obs, lookahead);
  const double tol = 1e-6 * std::max(1.0, std::abs(plan.value));
  EXPECT_NEAR(mpc.last_plan_value(), plan.value, tol) << "trial " << trial;
  const std::span<const double> roots = mpc.last_root_values();
  ASSERT_EQ(roots.size(), plan.root_values.size());
  for (size_t a = 0; a < roots.size(); a++) {
    EXPECT_NEAR(roots[a], plan.root_values[a], tol)
        << "trial " << trial << " action " << a;
  }
  if (rung != plan.rung) {
    EXPECT_NEAR(plan.root_values[static_cast<size_t>(rung)],
                plan.root_values[static_cast<size_t>(plan.rung)], tol)
        << "trial " << trial << ": argmax flip without a value tie";
  }
}

/// Pins every plan value and root value of the randomized sweep trials,
/// bit for bit (stable_hash of sweep_trial_bits).
constexpr uint64_t kSweepTrialsHash = 15796812151857999831ULL;

/// Plans 80 randomized trials: lookaheads, horizons, buffers and
/// multi-outcome distributions. Outcome times are off-grid, on the TTP grid
/// (the precomputed next-bin rows), or a mix of both, and some trials use a
/// fine 0.02 s buffer grid (751 bins). Appends every trial's plan value and
/// root values, bit for bit, to `plan_bits`. With `check_reference`, each
/// plan must also agree with the recursive reference
/// (expect_matches_reference).
void sweep_trial_bits(const bool check_reference, std::string& plan_bits) {
  Rng meta{909};
  for (int trial = 0; trial < 80; trial++) {
    // Trials from 60 on add the rows a fold may treat specially: off-grid
    // times above the 15 s buffer, where every bin stalls (MPC-HM clamps
    // times up to 60 s), and a bin width that does not divide 15 s (0.7 s:
    // 22 bins, the top one at 15.4 s, above the cap).
    const bool edge_rows = trial >= 60;
    MpcConfig config;
    config.horizon = 1 + static_cast<int>(meta.uniform_int(0, 4));
    config.lambda = meta.uniform(0.0, 2.0);
    if (trial % 5 == 4) {
      config.buffer_bin_s = 0.02;
    } else if (edge_rows && trial % 2 == 0) {
      config.buffer_bin_s = 0.7;
    }
    const uint64_t dist_seed = meta.engine()();
    const int max_outcomes = 1 + trial % 5;
    // Probability that an outcome time sits on the TTP grid: 0, 1 or 1/2.
    const double on_grid = trial % 4 == 0 ? 0.0 : trial % 4 == 1 ? 1.0 : 0.5;
    // Pure function of (step, size): both plans see identical distributions.
    ScriptedPredictor predictor{
        [dist_seed, max_outcomes, on_grid, edge_rows](const int step,
                                                      const int64_t size) {
          Rng rng{dist_seed ^ (static_cast<uint64_t>(step) << 48) ^
                  static_cast<uint64_t>(size)};
          const int n =
              1 + static_cast<int>(rng.uniform_int(0, max_outcomes - 1));
          TxTimeDistribution dist;
          double mass = 0.0;
          for (int i = 0; i < n; i++) {
            const double time_s =
                rng.bernoulli(on_grid)
                    ? kTtpBinMidpointsS[static_cast<size_t>(rng.uniform_int(
                          0, std::ssize(kTtpBinMidpointsS) - 1))]
                : edge_rows && rng.bernoulli(0.5) ? rng.uniform(15.0, 60.0)
                                                  : rng.uniform(0.05, 8.0);
            dist.push_back({time_s, rng.uniform(0.05, 1.0)});
            mass += dist.back().probability;
          }
          for (auto& outcome : dist) {
            outcome.probability /= mass;
          }
          return dist;
        }};

    AbrObservation obs;
    obs.buffer_s = meta.uniform(0.0, 15.0);
    obs.prev_ssim_db = trial % 3 == 0 ? -1.0 : meta.uniform(9.0, 17.0);
    // Lookaheads both shorter and longer than the horizon.
    const auto lookahead =
        make_lookahead(std::max(1, config.horizon - trial % 2));

    StochasticMpc mpc{config};
    const int iterative = mpc.plan(obs, lookahead, predictor);
    append_bits(plan_bits, mpc.last_plan_value());
    for (const double root : mpc.last_root_values()) {
      append_bits(plan_bits, root);
    }
    if (check_reference) {
      expect_matches_reference(mpc, obs, lookahead, iterative, trial);
    }
  }
}

TEST(Mpc, IterativeSweepMatchesRecursiveReference) {
  std::string plan_bits;
  sweep_trial_bits(/*check_reference=*/true, plan_bits);
  // A faster fold must reproduce every plan exactly, not just to 1e-6.
  EXPECT_EQ(stable_hash(plan_bits), kSweepTrialsHash);
}

/// The baseline and AVX2 copies of the sweep (mpc.cc, mpc_avx2.cc) must
/// give the same plans, bit for bit.
TEST(Mpc, PortableAndAvx2SweepsBitwiseIdentical) {
  std::string portable;
  {
    test::ForcePortableGuard guard;
    ASSERT_EQ(mpc_active_path(), "portable");
    sweep_trial_bits(/*check_reference=*/false, portable);
  }
  EXPECT_EQ(stable_hash(portable), kSweepTrialsHash);
  if (mpc_active_path() != "avx2") {
    GTEST_SKIP() << "AVX2 sweep not available (no AVX2 on this CPU, or "
                    "built with PUFFER_SIMD=OFF)";
  }
  std::string avx2;
  sweep_trial_bits(/*check_reference=*/false, avx2);
  EXPECT_TRUE(avx2 == portable) << "the AVX2 sweep planned other bits";
}

/// Pins every plan of the shapes the fleet plans with, bit for bit
/// (stable_hash of shaped_plan_bits).
constexpr uint64_t kShapedPlansHash = 7105206536753119000ULL;

/// A distribution shaped like the TTP's softmax: all 21 grid rows in
/// ascending order, peaked at the point estimate size / bps. Its tails fall
/// below MpcConfig::prune_probability, so after pruning each rung keeps its
/// own run of rows and some rows are missing from some rungs.
TxTimeDistribution ttp_shaped(const int64_t size, const double bps,
                              const double spread) {
  const double center = static_cast<double>(size) / bps;
  TxTimeDistribution dist;
  double mass = 0.0;
  for (const double time_s : kTtpBinMidpointsS) {
    const double d = (time_s - center) / spread;
    const double w = 1.0 / ((1.0 + d * d) * (1.0 + d * d) * (1.0 + d * d));
    dist.push_back({time_s, w});
    mass += w;
  }
  for (auto& outcome : dist) {
    outcome.probability /= mass;
  }
  return dist;
}

/// Plans 150 decisions with TTP-shaped distributions, the harmonic-mean
/// predictor's point masses (times up to its 60 s clamp, far above the
/// 15 s buffer) and steps alternating between the two. Horizons run 1-5,
/// lookaheads may be shorter than the horizon, bins are 0.25 s, 0.02 s or
/// 0.7 s, buffers sit on bin edges, at 0 and 15 s or between, and the
/// previous SSIM is sometimes absent (< 0). Appends every plan's rung,
/// value and root values, bit for bit, to `plan_bits`. With
/// `check_reference`, each plan must also agree with the recursive
/// reference, which reads the pruned distributions the plan used.
void shaped_plan_bits(const bool check_reference, std::string& plan_bits) {
  Rng meta{3030};
  for (int trial = 0; trial < 150; trial++) {
    MpcConfig config;
    config.horizon = 1 + trial % 5;
    config.lambda = meta.uniform(0.0, 2.0);
    config.buffer_bin_s = trial % 6 == 4 ? 0.02 : trial % 6 == 5 ? 0.7 : 0.25;
    const auto lookahead =
        make_lookahead(std::max(1, config.horizon - (trial / 5) % 3));
    constexpr std::array<double, 6> kMbps = {0.1, 0.4, 1.0, 3.0, 8.0, 25.0};
    const double bps =
        kMbps[static_cast<size_t>(meta.uniform_int(0, 5))] *
        meta.uniform(0.8, 1.25) * 1e6 / 8.0;
    const double spread = meta.uniform(0.2, 3.0);

    AbrObservation obs;
    const int edges =
        static_cast<int>(std::ceil(media::kMaxBufferS / config.buffer_bin_s));
    obs.buffer_s =
        trial % 4 == 0 ? static_cast<double>(meta.uniform_int(0, edges)) *
                             config.buffer_bin_s
        : trial % 4 == 1 ? (meta.bernoulli(0.5) ? 0.0 : media::kMaxBufferS)
                         : meta.uniform(0.0, media::kMaxBufferS);
    obs.prev_ssim_db = trial % 3 == 0 ? -1.0 : meta.uniform(9.0, 17.0);

    StochasticMpc mpc{config};
    int rung = 0;
    const int kind = trial % 7 % 3;
    if (kind == 1) {
      HarmonicMeanPredictor predictor;
      for (int i = 0; i < 5; i++) {
        predictor.on_chunk_complete(
            record_at_throughput(i, 1e6, bps * meta.uniform(0.7, 1.4)));
      }
      predictor.begin_decision(obs);
      rung = mpc.plan(obs, lookahead, predictor);
    } else {
      ScriptedPredictor predictor{
          [kind, bps, spread](const int step, const int64_t size) {
            if (kind == 2 && step % 2 == 1) {
              return TxTimeDistribution{
                  {std::min(static_cast<double>(size) / bps, 60.0), 1.0}};
            }
            return ttp_shaped(size, bps, spread);
          }};
      rung = mpc.plan(obs, lookahead, predictor);
    }
    append_bits(plan_bits, rung);
    append_bits(plan_bits, mpc.last_plan_value());
    for (const double root : mpc.last_root_values()) {
      append_bits(plan_bits, root);
    }
    if (check_reference) {
      expect_matches_reference(mpc, obs, lookahead, rung, trial);
    }
  }
}

/// The fleet's plan shapes, through both copies of the sweep.
TEST(Mpc, TtpAndHmShapedPlansArePinned) {
  std::string portable;
  {
    test::ForcePortableGuard guard;
    shaped_plan_bits(/*check_reference=*/true, portable);
  }
  EXPECT_EQ(stable_hash(portable), kShapedPlansHash);
  std::string active;
  shaped_plan_bits(/*check_reference=*/false, active);
  EXPECT_EQ(stable_hash(active), kShapedPlansHash);
}

/// Pins the plans of PrunedAwayRungsKeepTheirFirstArgmax, bit for bit.
constexpr uint64_t kPrunedAwayPlansHash = 453162874645259072ULL;

/// Full 21-row TTP grid answers under a 0.1 prune threshold. A rung whose
/// every outcome falls below it keeps only its first most likely outcome,
/// with probability 1: a flat rung (every row 1/21) keeps the first row,
/// and a rung with two equal peaks of 2/23 keeps the lower one. Other rungs
/// are TTP-shaped and keep a few rows each, so steps mix both kinds, and
/// some steps prune every rung away.
TEST(Mpc, PrunedAwayRungsKeepTheirFirstArgmax) {
  constexpr size_t kPeakRow = 4;
  // 0: flat; 1: two equal peaks (rows kPeakRow and 11); 2: TTP-shaped.
  const auto kind_of = [](const int step, const int64_t size) {
    return static_cast<int>((size / 1000 + step) % 3);
  };
  std::string plan_bits;
  std::array<int, 3> lists_of_kind{};
  Rng meta{4242};
  for (int trial = 0; trial < 24; trial++) {
    MpcConfig config;
    config.prune_probability = 0.1;
    config.lambda = meta.uniform(0.0, 2.0);
    StochasticMpc mpc{config};
    const double bps = meta.uniform(0.3, 12.0) * 1e6 / 8.0;
    const double spread = meta.uniform(0.2, 2.0);
    const bool all_pruned = trial % 4 == 3;  // no TTP-shaped rung anywhere
    ScriptedPredictor predictor{[&](const int step, const int64_t size) {
      const int kind = all_pruned ? kind_of(step, size) % 2
                                  : kind_of(step, size);
      if (kind == 2) {
        return ttp_shaped(size, bps, spread);
      }
      TxTimeDistribution dist;
      for (size_t row = 0; row < kTtpBinMidpointsS.size(); row++) {
        const bool peak = kind == 1 && (row == kPeakRow || row == 11);
        dist.push_back({kTtpBinMidpointsS[row],
                        kind == 0 ? 1.0 / 21.0 : (peak ? 2.0 : 1.0) / 23.0});
      }
      return dist;
    }};
    AbrObservation obs;
    obs.buffer_s = meta.uniform(0.0, media::kMaxBufferS);
    obs.prev_ssim_db = trial % 3 == 0 ? -1.0 : meta.uniform(9.0, 17.0);
    const auto lookahead = make_lookahead(5);
    const int rung = mpc.plan(obs, lookahead, predictor);
    append_bits(plan_bits, rung);
    append_bits(plan_bits, mpc.last_plan_value());
    for (const double root : mpc.last_root_values()) {
      append_bits(plan_bits, root);
    }
    expect_matches_reference(mpc, obs, lookahead, rung, trial);

    const auto pruned = mpc.last_distributions();
    ASSERT_EQ(pruned.size(), lookahead.size() * media::kNumRungs);
    for (int step = 0; step < 5; step++) {
      for (int r = 0; r < media::kNumRungs; r++) {
        const int64_t size = lookahead[static_cast<size_t>(step)]
                                 .versions[static_cast<size_t>(r)]
                                 .size_bytes;
        const TxTimeDistribution& dist =
            pruned[static_cast<size_t>(step * media::kNumRungs + r)];
        const int kind = all_pruned ? kind_of(step, size) % 2
                                    : kind_of(step, size);
        lists_of_kind[static_cast<size_t>(kind)]++;
        if (kind == 2) {
          ASSERT_FALSE(dist.empty());
          continue;
        }
        ASSERT_EQ(dist.size(), 1U) << "step " << step << " rung " << r;
        EXPECT_EQ(dist[0].time_s,
                  kTtpBinMidpointsS[kind == 0 ? 0 : kPeakRow]);
        EXPECT_EQ(dist[0].probability, 1.0);
      }
    }
  }
  for (const int lists : lists_of_kind) {
    EXPECT_GE(lists, 200);
  }
  EXPECT_EQ(stable_hash(plan_bits), kPrunedAwayPlansHash);
}

/// buffer_to_bin's inline rounding is std::lround on every value it can
/// see: a dense sweep of [0, 60], every k + 0.5 and both neighbours of each.
/// nextafter(0.5, 0) = 0.49999999999999994 is the case that rounding by
/// truncating x + 0.5 gets wrong.
TEST(Mpc, InlineRoundingMatchesLround) {
  std::vector<double> values;
  for (int i = 0; i <= 600000; i++) {
    values.push_back(i * 1e-4);
  }
  for (int k = 0; k < 60; k++) {
    const double half = k + 0.5;
    values.insert(values.end(), {std::nextafter(half, 0.0), half,
                                 std::nextafter(half, 61.0)});
  }
  for (const double x : values) {
    ASSERT_EQ(round_nonnegative(x), std::lround(x)) << std::hexfloat << x;
  }
  EXPECT_EQ(round_nonnegative(0.49999999999999994), 0);
}

/// chunk_qoe treats a negative previous SSIM as "no previous quality" and
/// skips the variation term; the sweep's hoisted switch-penalty table must
/// honor the same rule for interior steps.
TEST(Mpc, IterativeMatchesReferenceWithNegativeSsimVersions) {
  MpcConfig config;
  config.lambda = 25.0;  // make any variation-term mismatch decisive
  StochasticMpc mpc{config};
  ScriptedPredictor predictor{[](const int, const int64_t size) {
    return TxTimeDistribution{{static_cast<double>(size) / (3e6 / 8.0), 0.8},
                              {static_cast<double>(size) / (0.8e6 / 8.0), 0.2}};
  }};
  auto lookahead = make_lookahead(5);
  for (auto& options : lookahead) {
    options.versions[0].ssim_db = -1.0;  // e.g. an unavailable encoding
    options.versions[1].ssim_db = -0.5;
  }
  AbrObservation obs;
  obs.buffer_s = 5.0;
  obs.prev_ssim_db = 14.0;
  const int iterative = mpc.plan(obs, lookahead, predictor);
  const double iterative_value = mpc.last_plan_value();
  const oracle::ReferencePlan reference =
      oracle::plan_reference(mpc, obs, lookahead);
  EXPECT_EQ(iterative, reference.rung);
  EXPECT_NEAR(iterative_value, reference.value,
              1e-6 * std::max(1.0, std::abs(reference.value)));
}

TEST(Mpc, IterativePlanDeterministicAcrossRepeatedRuns) {
  StochasticMpc mpc;
  ScriptedPredictor predictor{[](const int, const int64_t size) {
    return TxTimeDistribution{
        {static_cast<double>(size) / (4e6 / 8.0), 0.7},
        {static_cast<double>(size) / (1e6 / 8.0), 0.3}};
  }};
  AbrObservation obs;
  obs.buffer_s = 6.0;
  obs.prev_ssim_db = 14.0;
  const auto lookahead = make_lookahead(5);
  const int first = mpc.plan(obs, lookahead, predictor);
  const double first_value = mpc.last_plan_value();
  for (int repeat = 0; repeat < 3; repeat++) {
    EXPECT_EQ(mpc.plan(obs, lookahead, predictor), first);
    EXPECT_EQ(mpc.last_plan_value(), first_value);  // bitwise
  }
}

TEST(Mpc, ShortLookaheadStillWorks) {
  StochasticMpc mpc;
  ScriptedPredictor predictor = constant_throughput(8e6 / 8.0);
  AbrObservation obs;
  obs.buffer_s = 8.0;
  obs.prev_ssim_db = 14.0;
  const auto lookahead = make_lookahead(1);  // live edge: only one chunk known
  const int choice = mpc.plan(obs, lookahead, predictor);
  EXPECT_GE(choice, 0);
  EXPECT_LT(choice, media::kNumRungs);
}

TEST(Mpc, BinSizeTooSmallForNextBinTableRejected) {
  // Next-bin indices are stored as uint16_t: 15 s / 2e-4 s = 75,000 bins
  // do not fit.
  MpcConfig config;
  config.buffer_bin_s = 2e-4;
  EXPECT_THROW(StochasticMpc{config}, RequirementError);
}

/// A non-finite weight would turn the merged fold's p = 0 rows into NaN,
/// and a negative stall weight or a pruning threshold of 1 or more is
/// meaningless: each is rejected with a message naming the field.
TEST(Mpc, NonFiniteOrOutOfRangeConfigRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [](const MpcConfig& config, const std::string& field) {
    try {
      StochasticMpc mpc{config};
    } catch (const RequirementError& error) {
      return std::string{error.what()}.find(field) != std::string::npos;
    }
    return false;
  };
  for (const double lambda : {nan, inf, -inf}) {
    MpcConfig config;
    config.lambda = lambda;
    EXPECT_TRUE(rejects(config, "lambda")) << lambda;
  }
  for (const double mu : {nan, inf, -inf, -1.0}) {
    MpcConfig config;
    config.mu = mu;
    EXPECT_TRUE(rejects(config, "mu")) << mu;
  }
  for (const double prune : {nan, -1e-9, 1.0, 2.0}) {
    MpcConfig config;
    config.prune_probability = prune;
    EXPECT_TRUE(rejects(config, "prune_probability")) << prune;
  }
  MpcConfig edges;
  edges.lambda = -1.0;
  edges.mu = 0.0;
  edges.prune_probability = 0.0;
  EXPECT_NO_THROW(StochasticMpc{edges});
}

TEST(Mpc, EmptyLookaheadRejected) {
  StochasticMpc mpc;
  ScriptedPredictor predictor = constant_throughput(1e6);
  AbrObservation obs;
  EXPECT_THROW(mpc.plan(obs, {}, predictor), RequirementError);
}

TEST(MpcAbr, EndToEndWithHarmonicMean) {
  MpcAbr abr{"MPC-HM", std::make_unique<HarmonicMeanPredictor>()};
  AbrObservation obs;
  obs.buffer_s = 10.0;
  obs.prev_ssim_db = -1.0;
  const auto lookahead = make_lookahead(5);

  // Feed a fast history; the controller should go high.
  for (int i = 0; i < 5; i++) {
    abr.on_chunk_complete(record_at_throughput(i, 1e6, 8e6));
  }
  const int fast_choice = abr.choose_rung(obs, lookahead);

  abr.reset_session();
  for (int i = 0; i < 5; i++) {
    abr.on_chunk_complete(record_at_throughput(i, 1e6, 0.1e6));
  }
  const int slow_choice = abr.choose_rung(obs, lookahead);
  EXPECT_GT(fast_choice, slow_choice);
}

TEST(MpcAbr, RequiresPredictor) {
  EXPECT_THROW(MpcAbr("x", nullptr), RequirementError);
}

}  // namespace
}  // namespace puffer::abr
