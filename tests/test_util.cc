#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <thread>
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

TEST(Table, CsvOutput) {
  Table table{{"a", "b"}};
  table.add_row({"1", "2"});
  EXPECT_EQ(table.to_csv(), "a,b\n1,2\n");
}

TEST(Table, RejectsMismatchedRow) {
  Table table{{"a", "b"}};
  EXPECT_THROW(table.add_row({"only-one"}), RequirementError);
}

TEST(Format, FixedAndPercent) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.0012, 2), "0.12%");
}

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; i++) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool{2};
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { count.fetch_add(1); });
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, PropagatesJobExceptionToWait) {
  ThreadPool pool{2};
  std::atomic<int> count{0};
  pool.submit([] { throw std::runtime_error("job failed"); });
  for (int i = 0; i < 10; i++) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The failure does not cancel the batch: every other job still ran, and
  // the pool stays usable — the error is delivered exactly once.
  EXPECT_EQ(count.load(), 10);
  pool.submit([&count] { count.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, FirstExceptionWins) {
  // One worker executes the FIFO queue in order, so "first" is well-defined.
  ThreadPool pool{1};
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait();
    FAIL() << "wait() must rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "first");
  }
}

TEST(ThreadPool, ExceptionSelectionIsBySubmissionIndexNotFinishOrder) {
  // The earlier-submitted job fails *last* on the wall clock (it sleeps
  // while the later job throws immediately on the other worker), yet its
  // exception must be the one wait() rethrows — selection is by submission
  // index, so the observed error cannot depend on thread scheduling.
  for (int iteration = 0; iteration < 20; iteration++) {
    ThreadPool pool{2};
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      throw std::runtime_error("submitted-first");
    });
    pool.submit([] { throw std::runtime_error("submitted-second"); });
    try {
      pool.wait();
      FAIL() << "wait() must rethrow";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "submitted-first");
    }
  }
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  // Destroying the pool while jobs are still queued must run them all
  // before joining — no deadlock, no dropped work.
  std::atomic<int> count{0};
  {
    ThreadPool pool{1};
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    for (int i = 0; i < 50; i++) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // No wait(): the destructor handles the backlog.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DestructionAfterUnobservedExceptionIsSafe) {
  ThreadPool pool{2};
  pool.submit([] { throw std::runtime_error("never observed"); });
  // Destroying without wait() must discard the captured exception quietly.
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
