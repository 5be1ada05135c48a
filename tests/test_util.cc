#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.hh"
#include "util/json.hh"
#include "util/require.hh"
#include "util/rng.hh"
#include "util/running_stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace puffer {
namespace {

TEST(Require, PassesOnTrue) {
  EXPECT_NO_THROW(require(true, "fine"));
}

TEST(Require, ThrowsOnFalseWithMessage) {
  try {
    require(false, "broken invariant");
    FAIL() << "should have thrown";
  } catch (const RequirementError& e) {
    EXPECT_STREQ(e.what(), "broken invariant");
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; i++) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{123}, b{124};
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.uniform() == b.uniform()) {
      same++;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, SplitByLabelIsStable) {
  const Rng parent{7};
  Rng a = parent.split("child");
  Rng b = parent.split("child");
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitByDifferentLabelsAreIndependent) {
  const Rng parent{7};
  Rng a = parent.split("alpha");
  Rng b = parent.split("beta");
  EXPECT_NE(a.uniform(), b.uniform());
}

TEST(Rng, SplitByIndexIsStable) {
  const Rng parent{7};
  EXPECT_DOUBLE_EQ(parent.split(uint64_t{3}).uniform(),
                   parent.split(uint64_t{3}).uniform());
}

TEST(Rng, UniformInRange) {
  Rng rng{1};
  for (int i = 0; i < 1000; i++) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng{1};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; i++) {
    const int64_t x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng{2};
  RunningStats stats;
  for (int i = 0; i < 20000; i++) {
    stats.add(rng.normal(3.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{3};
  RunningStats stats;
  for (int i = 0; i < 20000; i++) {
    stats.add(rng.exponential(0.5));
  }
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng{4};
  for (int i = 0; i < 1000; i++) {
    EXPECT_GE(rng.pareto(10.0, 1.5), 10.0);
  }
}

TEST(Rng, ParetoIsHeavyTailed) {
  Rng rng{4};
  int over_10x = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    if (rng.pareto(1.0, 1.05) > 10.0) {
      over_10x++;
    }
  }
  // P(X > 10) = 10^-1.05 ~= 8.9%.
  EXPECT_NEAR(static_cast<double>(over_10x) / n, 0.089, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{5};
  int heads = 0;
  for (int i = 0; i < 20000; i++) {
    heads += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng{6};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; i++) {
    counts[rng.categorical({1.0, 2.0, 7.0})]++;
  }
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, CategoricalRejectsAllZero) {
  Rng rng{6};
  EXPECT_THROW(rng.categorical({0.0, 0.0}), RequirementError);
}

// The oracle engine. The standard fixes std::mt19937_64's output sequence,
// and Mt19937_64 must give that sequence for every seed.
// DETLINT-OK(nondet-source): test oracle that Mt19937_64 must reproduce
using StdMt = std::mt19937_64;
// DETLINT-OK(nondet-source): the library's algorithm, oracle for uniform_int
using StdUniformInt = std::uniform_int_distribution<int64_t>;

/// std::shuffle over `engine`: the library's algorithm, the oracle for
/// puffer::shuffle.
template <typename Engine>
void std_shuffle(std::vector<int>& items, Engine& engine) {
  // DETLINT-OK(nondet-source): the library's algorithm, oracle for shuffle
  std::shuffle(items.begin(), items.end(), engine);
}

TEST(Mt19937_64, MatchesStdEngineAcrossRefills) {
  const uint64_t seeds[] = {0,        1,        UINT64_MAX,
                            mix64(1), mix64(7), mix64(UINT64_MAX)};
  for (const uint64_t seed : seeds) {
    Mt19937_64 ours{seed};
    StdMt theirs{seed};
    // 2,000 draws: six refills of the 312-word state.
    for (int i = 0; i < 2000; i++) {
      ASSERT_EQ(ours(), theirs()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt19937_64, CopyTakenMidBlockContinuesIdentically) {
  Mt19937_64 engine{mix64(3)};
  StdMt oracle{mix64(3)};
  for (int i = 0; i < 100; i++) {
    ASSERT_EQ(engine(), oracle());
  }
  Mt19937_64 copy = engine;
  for (int i = 0; i < 1000; i++) {
    const uint64_t expected = oracle();
    ASSERT_EQ(copy(), expected) << "draw " << i;
    ASSERT_EQ(engine(), expected) << "draw " << i;
  }
}

TEST(Mt19937_64, ShuffleAndUniformIntMatchStdEngine) {
  Mt19937_64 ours{mix64(5)};
  StdMt theirs{mix64(5)};
  std::vector<int> a(1000);
  std::iota(a.begin(), a.end(), 0);
  std::vector<int> b = a;
  std_shuffle(a, ours);
  std_shuffle(b, theirs);
  EXPECT_EQ(a, b);
  for (int64_t i = 0; i < 1000; i++) {
    StdUniformInt range{-5, 3 * i};
    StdUniformInt full{INT64_MIN, INT64_MAX};
    ASSERT_EQ(range(ours), range(theirs)) << "draw " << i;
    ASSERT_EQ(full(ours), full(theirs)) << "draw " << i;
  }
  EXPECT_EQ(ours(), theirs());
}

TEST(Rng, CanonicalDoubleMapsDrawsIntoUnitInterval) {
  EXPECT_EQ(canonical_double(0), 0.0);
  EXPECT_EQ(canonical_double(uint64_t{1} << 53), 0x1p-11);
  // Both round to 2^64 in the conversion to double, so both would reach
  // 1.0; they give the largest double below 1 instead.
  const double below_one = std::nextafter(1.0, 0.0);
  EXPECT_EQ(canonical_double(UINT64_MAX), below_one);
  EXPECT_EQ(canonical_double(UINT64_MAX - 1023), below_one);
}

enum class DrawKind {
  kUniform,
  kUniformRange,
  kNormal,
  kNormalScaled,
  kExponential,
  kLognormal,
};

constexpr DrawKind kDrawKinds[] = {
    DrawKind::kUniform,      DrawKind::kUniformRange, DrawKind::kNormal,
    DrawKind::kNormalScaled, DrawKind::kExponential,  DrawKind::kLognormal,
};
constexpr int kDistributionDraws = 100000;
constexpr uint64_t kDistributionSeed = 11;

double rng_draw(Rng& rng, const DrawKind kind) {
  switch (kind) {
    case DrawKind::kUniform:
      return rng.uniform();
    case DrawKind::kUniformRange:
      return rng.uniform(-3.0, 7.5);
    case DrawKind::kNormal:
      return rng.normal();
    case DrawKind::kNormalScaled:
      return rng.normal(3.0, 2.0);
    case DrawKind::kExponential:
      return rng.exponential(0.5);
    case DrawKind::kLognormal:
      return rng.lognormal(-1.0, 0.7);
  }
  return 0.0;
}

std::vector<double> rng_draws(const DrawKind kind) {
  Rng rng{kDistributionSeed};
  std::vector<double> draws(kDistributionDraws);
  for (double& draw : draws) {
    draw = rng_draw(rng, kind);
  }
  return draws;
}

#ifdef __GLIBCXX__
// libstdc++'s distributions, the oracle for Rng's draws. Each is built fresh
// per draw, as Rng's draws were before it wrote the expressions out.
// DETLINT-OK(nondet-source): libstdc++ oracle for Rng::uniform
using StdUniform = std::uniform_real_distribution<double>;
// DETLINT-OK(nondet-source): libstdc++ oracle for Rng::normal
using StdNormal = std::normal_distribution<double>;
// DETLINT-OK(nondet-source): libstdc++ oracle for Rng::exponential
using StdExponential = std::exponential_distribution<double>;
// DETLINT-OK(nondet-source): libstdc++ oracle for Rng::lognormal
using StdLognormal = std::lognormal_distribution<double>;

double libstdcxx_draw(StdMt& engine, const DrawKind kind) {
  switch (kind) {
    case DrawKind::kUniform:
      return StdUniform{0.0, 1.0}(engine);
    case DrawKind::kUniformRange:
      return StdUniform{-3.0, 7.5}(engine);
    case DrawKind::kNormal:
      return StdNormal{0.0, 1.0}(engine);
    case DrawKind::kNormalScaled:
      return StdNormal{3.0, 2.0}(engine);
    case DrawKind::kExponential:
      return StdExponential{0.5}(engine);
    case DrawKind::kLognormal:
      return StdLognormal{-1.0, 0.7}(engine);
  }
  return 0.0;
}

TEST(Rng, DrawsEqualLibstdcxxDistributions) {
  for (const DrawKind kind : kDrawKinds) {
    const std::vector<double> ours = rng_draws(kind);
    // Rng{seed} seeds its engine with mix64(seed).
    StdMt engine{mix64(kDistributionSeed)};
    for (int i = 0; i < kDistributionDraws; i++) {
      ASSERT_EQ(ours[static_cast<size_t>(i)], libstdcxx_draw(engine, kind))
          << "kind " << static_cast<int>(kind) << " draw " << i;
    }
  }
}
#endif  // __GLIBCXX__

#ifdef __GLIBCXX__
// Ranges for the integer draws: tiny, typical, the full 64-bit span, and
// spans just above 2^63, where Lemire's method rejects almost half of the
// first draws.
constexpr std::pair<int64_t, int64_t> kIntRanges[] = {
    {5, 5},
    {-1, 1},
    {0, 20},
    {-7, 999},
    {0, 5'999'999},
    {INT64_MIN, INT64_MAX},
    {INT64_MIN, 12345},
    {-3, INT64_MAX},
};

TEST(Rng, UniformIntEqualsLibstdcxxDistribution) {
  Rng rng{kDistributionSeed};
  StdMt engine{mix64(kDistributionSeed)};
  for (int64_t i = 0; i < kDistributionDraws; i++) {
    const int64_t hi = i % 1000;
    ASSERT_EQ(rng.uniform_int(-7, hi), (StdUniformInt{-7, hi}(engine)))
        << "draw " << i;
  }
  for (const auto& [lo, hi] : kIntRanges) {
    for (int i = 0; i < 1000; i++) {
      ASSERT_EQ(rng.uniform_int(lo, hi), (StdUniformInt{lo, hi}(engine)))
          << "[" << lo << ", " << hi << "] draw " << i;
    }
  }
  EXPECT_EQ(rng.engine()(), engine());
}

TEST(Shuffle, EqualsLibstdcxxShuffle) {
  for (const size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 16u, 17u, 1000u, 20001u}) {
    Rng rng{n};
    StdMt engine{mix64(n)};
    std::vector<int> ours(n);
    std::iota(ours.begin(), ours.end(), 0);
    std::vector<int> theirs = ours;
    shuffle(std::span{ours}, rng);
    std_shuffle(theirs, engine);
    EXPECT_EQ(ours, theirs) << "length " << n;
    // The same number of engine draws, too.
    EXPECT_EQ(rng.engine()(), engine()) << "length " << n;
  }
}
#endif  // __GLIBCXX__

TEST(Rng, IntegerDrawsArePinnedBitForBit) {
  // FNV-1a of uniform_int draws over small, full and near-2^63 spans, and
  // of a shuffled index list: these hold on any standard library, because
  // the integer algorithms are written out in rng.hh.
  Rng rng{kDistributionSeed};
  std::vector<int64_t> draws;
  for (int64_t i = 0; i < 10000; i++) {
    draws.push_back(rng.uniform_int(-7, i % 1000));
    draws.push_back(rng.uniform_int(INT64_MIN, INT64_MAX));
    draws.push_back(rng.uniform_int(-3, INT64_MAX));
  }
  EXPECT_EQ(stable_hash({reinterpret_cast<const char*>(draws.data()),
                         draws.size() * sizeof(int64_t)}),
            7550171791161516581u);
  std::vector<uint32_t> rows(20001);
  std::iota(rows.begin(), rows.end(), 0u);
  shuffle(std::span{rows}, rng);
  shuffle(std::span{rows}.first(256), rng);
  EXPECT_EQ(stable_hash({reinterpret_cast<const char*>(rows.data()),
                         rows.size() * sizeof(uint32_t)}),
            7723181116307204747u);
}

TEST(Rng, DrawsArePinnedBitForBit) {
  // FNV-1a of each kind's draws, as bytes: these hold on any standard
  // library, because Rng no longer draws through std's float distributions.
  const uint64_t pinned[] = {
      17863139444989456710u, 6854971031405191483u, 14738262217484931492u,
      438293092592168625u,   9585221324638867737u, 2725766505374493382u,
  };
  size_t index = 0;
  for (const DrawKind kind : kDrawKinds) {
    const std::vector<double> draws = rng_draws(kind);
    const std::string_view bytes{reinterpret_cast<const char*>(draws.data()),
                                 draws.size() * sizeof(double)};
    EXPECT_EQ(stable_hash(bytes), pinned[index++])
        << "kind " << static_cast<int>(kind);
  }
}

TEST(StableHash, DistinctStringsDistinctHashes) {
  EXPECT_NE(stable_hash("abr"), stable_hash("bar"));
  EXPECT_EQ(stable_hash("fugu"), stable_hash("fugu"));
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 4.0, 1e-12);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, WeightedMeanMatchesManual) {
  RunningStats stats;
  stats.add(10.0, 1.0);
  stats.add(20.0, 3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 17.5);
}

TEST(RunningStats, ZeroWeightIgnored) {
  RunningStats stats;
  stats.add(10.0, 1.0);
  stats.add(1e9, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 10.0);
  EXPECT_EQ(stats.count(), 1u);
}

TEST(RunningStats, NegativeWeightRejected) {
  RunningStats stats;
  EXPECT_THROW(stats.add(1.0, -0.5), RequirementError);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  Rng rng{9};
  RunningStats all, left, right;
  for (int i = 0; i < 1000; i++) {
    const double x = rng.normal(1.0, 3.0);
    const double w = rng.uniform(0.1, 2.0);
    all.add(x, w);
    (i % 2 == 0 ? left : right).add(x, w);
  }
  left.merge(right);
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_EQ(left.count(), all.count());
}

TEST(RunningStats, StandardErrorShrinksWithN) {
  Rng rng{10};
  RunningStats small, large;
  for (int i = 0; i < 100; i++) {
    small.add(rng.normal());
  }
  for (int i = 0; i < 10000; i++) {
    large.add(rng.normal());
  }
  EXPECT_GT(small.standard_error(), large.standard_error());
  EXPECT_NEAR(large.standard_error(), 0.01, 0.005);
}

TEST(Table, RendersAlignedColumnsAndRows) {
  Table table{{"Algorithm", "Stall"}};
  table.add_row({"Fugu", "0.12%"});
  table.add_row({"BBA", "0.19%"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("Algorithm"), std::string::npos);
  EXPECT_NE(out.find("Fugu"), std::string::npos);
  EXPECT_NE(out.find("0.19%"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table table{{"a", "b"}};
  EXPECT_THROW(table.add_row({"only-one"}), RequirementError);
}

TEST(Format, FixedAndPercent) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.0012, 2), "0.12%");
}

TEST(ThreadPool, RunRunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    for (const int64_t jobs : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{100}}) {
      // One slot per index: a job run twice would show as a count of 2
      // (and as a data race under TSan).
      std::vector<int> runs(static_cast<size_t>(jobs), 0);
      ThreadPool::run(jobs, threads, [&runs](const int64_t i) {
        runs[static_cast<size_t>(i)]++;
      });
      EXPECT_EQ(runs, std::vector<int>(static_cast<size_t>(jobs), 1))
          << threads << " threads, " << jobs << " jobs";
    }
  }
}

TEST(ThreadPool, RunRethrowsLowestFailingIndexEvenWhenItFailsLast) {
  // Job 0 fails *last* on the wall clock (it sleeps while job 1 throws
  // immediately on the other thread), yet its exception is the one run()
  // rethrows — selection is by index, not by scheduling. The failures do
  // not cancel the batch: every other job still runs.
  for (int iteration = 0; iteration < 20; iteration++) {
    std::atomic<int> others{0};
    try {
      ThreadPool::run(12, 2, [&others](const int64_t i) {
        if (i == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          throw std::runtime_error("job-0");
        }
        if (i == 1) {
          throw std::runtime_error("job-1");
        }
        others.fetch_add(1);
      });
      FAIL() << "run() must rethrow";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "job-0");
    }
    EXPECT_EQ(others.load(), 10);
  }
}

TEST(ThreadPool, RunWithOneWorkerRunsInOrderOnCallingThread) {
  // num_threads < 1 is clamped to one worker.
  for (const int threads : {1, 0, -3}) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int64_t> order;
    ThreadPool::run(5, threads, [&](const int64_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4})) << threads;
  }
}

TEST(ThreadPool, NestedRunsShareTheOuterWorkers) {
  // Three outer jobs on four workers, each nesting 20 jobs that ask for
  // eight: every nested index runs once, and all of it runs on the four
  // outer workers (a nested run starts no thread of its own).
  constexpr int64_t kOuter = 3;
  constexpr int64_t kInner = 20;
  std::vector<std::thread::id> ran_on(kOuter * (kInner + 1));
  std::vector<int> runs(kOuter * kInner, 0);
  ThreadPool::run(kOuter, 4, [&](const int64_t outer) {
    ran_on[static_cast<size_t>(outer)] = std::this_thread::get_id();
    ThreadPool::run(kInner, 8, [&, outer](const int64_t inner) {
      const auto slot = static_cast<size_t>(outer * kInner + inner);
      runs[slot]++;
      ran_on[kOuter + slot] = std::this_thread::get_id();
    });
  });
  EXPECT_EQ(runs, std::vector<int>(kOuter * kInner, 1));
  std::sort(ran_on.begin(), ran_on.end());
  const auto distinct = std::unique(ran_on.begin(), ran_on.end());
  EXPECT_LE(distinct - ran_on.begin(), 4);
  EXPECT_EQ(std::find(ran_on.begin(), distinct, std::this_thread::get_id()),
            distinct);  // the outermost caller only waits
}

TEST(ThreadPool, IdleWorkerHelpsANestedRun) {
  // One outer job nests four; its worker takes nested job 0, which waits
  // until another nested job has started. Only an outer worker that had no
  // job of its own can start it.
  std::atomic<bool> helped{false};
  ThreadPool::run(2, 3, [&helped](const int64_t outer) {
    if (outer != 0) {
      return;
    }
    const std::thread::id owner = std::this_thread::get_id();
    ThreadPool::run(4, 3, [&helped, owner](const int64_t inner) {
      if (inner != 0) {
        if (std::this_thread::get_id() != owner) {
          helped.store(true);
        }
        return;
      }
      // At most ~20 s, so a pool that never helps fails instead of hanging.
      for (int wait_ms = 0; wait_ms < 20000 && !helped.load(); wait_ms++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  EXPECT_TRUE(helped.load());
}

TEST(ThreadPool, NestedRunRethrowsItsLowestFailingIndex) {
  std::vector<std::string> caught(2);
  ThreadPool::run(2, 2, [&caught](const int64_t outer) {
    try {
      ThreadPool::run(6, 2, [outer](const int64_t inner) {
        if (inner >= 2 + outer) {
          throw std::runtime_error("job-" + std::to_string(inner));
        }
      });
    } catch (const std::runtime_error& error) {
      caught[static_cast<size_t>(outer)] = error.what();
    }
  });
  EXPECT_EQ(caught, (std::vector<std::string>{"job-2", "job-3"}));
}

TEST(ThreadPool, ResolveMapsZeroAndNegativeToAllCores) {
  EXPECT_EQ(ThreadPool::resolve(3), 3);
  EXPECT_EQ(ThreadPool::resolve(0), ThreadPool::hardware_threads());
  EXPECT_EQ(ThreadPool::resolve(-1), ThreadPool::hardware_threads());
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(JsonWriter, EscapesSpecialCharactersInStrings) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("C:\\traces\\fcc18"), "C:\\\\traces\\\\fcc18");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\tb\nc\rd\be\ff"),
            "a\\tb\\nc\\rd\\be\\ff");
  EXPECT_EQ(json_escape(std::string{"\x01\x1f"}), "\\u0001\\u001f");
}

TEST(JsonWriter, EmitsEscapedKeysAndValues) {
  bench::JsonWriter json;
  json.field("path", std::string{"out\\dir"});
  json.field("quote\"key", std::string{"line1\nline2"});
  json.field("count", 3);
  EXPECT_EQ(json.str(),
            "{\n"
            "  \"path\": \"out\\\\dir\",\n"
            "  \"quote\\\"key\": \"line1\\nline2\",\n"
            "  \"count\": 3\n"
            "}\n");
}

TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  // snprintf would emit bare `nan` / `inf` tokens, which no JSON parser
  // accepts; degenerate bench runs must still produce valid JSON.
  bench::JsonWriter json;
  json.field("nan", std::numeric_limits<double>::quiet_NaN(), 2);
  json.field("inf", std::numeric_limits<double>::infinity(), 2);
  json.field("neg_inf", -std::numeric_limits<double>::infinity(), 2);
  json.field("finite", 1.5, 2);
  EXPECT_EQ(json.str(),
            "{\n"
            "  \"nan\": null,\n"
            "  \"inf\": null,\n"
            "  \"neg_inf\": null,\n"
            "  \"finite\": 1.50\n"
            "}\n");
}

/// The bench env knobs take only whole positive integers: anything else is
/// an error naming the variable, never a silently one-stream run.
TEST(BenchEnv, PositiveIntKnobRejectsMalformedValues) {
  constexpr const char* kName = "PUFFER_BENCH_SESSIONS";
  ::unsetenv(kName);
  EXPECT_EQ(bench::positive_env_int(kName, 7), 7);
  for (const char* bad : {"abc", "12x", "0", "-3"}) {
    ::setenv(kName, bad, 1);
    try {
      static_cast<void>(bench::positive_env_int(kName, 7));
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const RequirementError& error) {
      EXPECT_NE(std::string{error.what()}.find(kName), std::string::npos)
          << error.what();
    }
  }
  ::setenv(kName, "40", 1);
  EXPECT_EQ(bench::positive_env_int(kName, 7), 40);
  EXPECT_EQ(bench::sessions_per_scheme(), 40);
  ::unsetenv(kName);
}

}  // namespace
}  // namespace puffer
