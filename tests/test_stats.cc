#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "stats/bootstrap.hh"
#include "stats/summary.hh"
#include "util/require.hh"
#include "util/rng.hh"

namespace puffer::stats {
namespace {

TEST(Quantile, KnownValues) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 2.0);
}

TEST(Quantile, InterpolatesBetweenPoints) {
  const std::vector<double> values = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.35), 3.5);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(quantile({}, 0.5), RequirementError);
  EXPECT_THROW(quantile({1.0}, 1.5), RequirementError);
}

TEST(ConfidenceInterval, RelativeHalfWidth) {
  const ConfidenceInterval ci{/*point=*/0.002, /*lower=*/0.0018,
                              /*upper=*/0.0022};
  EXPECT_NEAR(ci.relative_half_width(), 0.10, 1e-9);
}

TEST(ConfidenceInterval, RelativeHalfWidthGuardsZeroPoint) {
  // A zero point estimate with real width: relative width is unbounded.
  const ConfidenceInterval zero_point{0.0, -0.01, 0.01};
  EXPECT_TRUE(std::isinf(zero_point.relative_half_width()));
  EXPECT_GT(zero_point.relative_half_width(), 0.0);

  // Fully degenerate (a scheme that never stalled): deliberately 0.
  const ConfidenceInterval degenerate{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(degenerate.relative_half_width(), 0.0);

  // Near-zero point estimates no longer divide into a denormal.
  const ConfidenceInterval tiny{1e-300, 0.0, 2e-300};
  EXPECT_TRUE(std::isinf(tiny.relative_half_width()));

  // A healthy point estimate still reports the plain ratio.
  const ConfidenceInterval healthy{0.5, 0.4, 0.6};
  EXPECT_NEAR(healthy.relative_half_width(), 0.2, 1e-12);
}

TEST(ConfidenceInterval, OverlapLogic) {
  const ConfidenceInterval a{1.0, 0.9, 1.1};
  const ConfidenceInterval b{1.05, 1.0, 1.2};
  const ConfidenceInterval c{2.0, 1.5, 2.5};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
}

TEST(BootstrapRatio, PointEstimateIsRatioOfSums) {
  const std::vector<RatioObservation> streams = {
      {1.0, 100.0}, {0.0, 100.0}, {3.0, 200.0}};
  Rng rng{1};
  const auto ci = bootstrap_ratio_ci(streams, rng, 200);
  EXPECT_NEAR(ci.point, 4.0 / 400.0, 1e-12);
  EXPECT_LE(ci.lower, ci.point);
  EXPECT_GE(ci.upper, ci.point);
}

TEST(BootstrapRatio, DegenerateSampleHasZeroWidth) {
  const std::vector<RatioObservation> streams(50, RatioObservation{1.0, 10.0});
  Rng rng{2};
  const auto ci = bootstrap_ratio_ci(streams, rng, 200);
  EXPECT_DOUBLE_EQ(ci.lower, 0.1);
  EXPECT_DOUBLE_EQ(ci.upper, 0.1);
}

TEST(BootstrapRatio, WidthShrinksWithSampleSize) {
  Rng data_rng{3};
  auto make_sample = [&](const int n) {
    std::vector<RatioObservation> streams;
    for (int i = 0; i < n; i++) {
      const double watch = data_rng.lognormal(4.0, 1.0);
      const double stall =
          data_rng.bernoulli(0.05) ? data_rng.exponential(0.2) : 0.0;
      streams.push_back({stall, watch});
    }
    return streams;
  };
  Rng rng{4};
  const auto small = bootstrap_ratio_ci(make_sample(100), rng, 400);
  const auto large = bootstrap_ratio_ci(make_sample(10000), rng, 400);
  EXPECT_GT(small.relative_half_width(), large.relative_half_width());
  // The interval bounds, bit for bit (the 95% percentile bootstrap).
  EXPECT_EQ(small.lower, 0.0);
  EXPECT_EQ(small.upper, 0.0053876709944358833);
  EXPECT_EQ(large.lower, 0.0020975125262284321);
  EXPECT_EQ(large.upper, 0.002713938528039651);
}

/// The paper's headline statistical point (section 3.4): even with a lot of
/// data the stall-ratio CI stays wide, because rebuffering is rare and heavy
/// tailed. With ~2000 streams the relative half-width far exceeds 5%.
TEST(BootstrapRatio, StallRatioUncertaintyIsSubstantial) {
  Rng data_rng{5};
  std::vector<RatioObservation> streams;
  for (int i = 0; i < 2000; i++) {
    const double watch = data_rng.lognormal(5.0, 1.3);
    const double stall =
        data_rng.bernoulli(0.03) ? watch * data_rng.uniform(0.001, 0.1) : 0.0;
    streams.push_back({stall, watch});
  }
  Rng rng{6};
  const auto ci = bootstrap_ratio_ci(streams, rng, 500);
  EXPECT_GT(ci.relative_half_width(), 0.05);
}

TEST(BootstrapMean, CoversTrueMeanMostOfTheTime) {
  // Repeated-experiment coverage of the 95% CI: run 60 experiments and
  // require the true mean to be covered at least 80% of the time (loose
  // bound; percentile bootstrap is approximate at small n).
  Rng rng{7};
  int covered = 0;
  const int experiments = 60;
  for (int e = 0; e < experiments; e++) {
    std::vector<double> sample(80);
    for (auto& x : sample) {
      x = rng.normal(10.0, 3.0);
    }
    const auto ci = bootstrap_mean_ci(sample, rng, 300);
    if (ci.lower <= 10.0 && 10.0 <= ci.upper) {
      covered++;
    }
  }
  EXPECT_GE(covered, static_cast<int>(0.80 * experiments));
}

/// The interval's bits depend on the order of the resampling draws, on the
/// left-to-right sum of each replicate and on the percentile picks; pinning
/// them keeps all three from drifting.
TEST(BootstrapMean, IntervalBitsArePinned) {
  Rng draw{21};
  std::vector<double> sample(37);
  for (auto& x : sample) {
    x = draw.lognormal(0.0, 1.0);
  }
  Rng rng{5};
  const ConfidenceInterval ci = bootstrap_mean_ci(sample, rng, 250);
  std::string bits;
  for (const double v : {ci.point, ci.lower, ci.upper}) {
    bits += std::to_string(std::bit_cast<uint64_t>(v)) + ";";
  }
  EXPECT_EQ(stable_hash(bits), 5024583217983577883u) << bits;
}

StreamFigures make_stream(const double watch, const double stall,
                          const double ssim, const double variation = 0.5) {
  StreamFigures f;
  f.watch_time_s = watch;
  f.stall_time_s = stall;
  f.ssim_mean_db = ssim;
  f.ssim_variation_db = variation;
  f.mean_bitrate_mbps = 3.0;
  f.startup_delay_s = 0.5;
  f.first_chunk_ssim_db = 10.0;
  return f;
}

TEST(Summary, DurationWeightedSsim) {
  // A long good stream and a short bad one: the weighted mean leans long.
  const std::vector<StreamFigures> streams = {make_stream(900.0, 0.0, 17.0),
                                              make_stream(100.0, 0.0, 7.0)};
  Rng rng{10};
  const auto summary = summarize_scheme(streams, rng, 100);
  EXPECT_NEAR(summary.ssim_mean_db, 16.0, 1e-9);
  EXPECT_EQ(summary.num_streams, 2);
  EXPECT_DOUBLE_EQ(summary.total_watch_time_s, 1000.0);
}

TEST(Summary, StallRatioAggregatesAcrossStreams) {
  const std::vector<StreamFigures> streams = {make_stream(500.0, 1.0, 16.0),
                                              make_stream(500.0, 0.0, 16.0)};
  Rng rng{11};
  const auto summary = summarize_scheme(streams, rng, 100);
  EXPECT_NEAR(summary.stall_ratio.point, 1.0 / 1000.0, 1e-12);
}

TEST(Summary, EmptyInputRejected) {
  Rng rng{12};
  EXPECT_THROW(summarize_scheme({}, rng), RequirementError);
}

TEST(Summary, WeightedSeSmallerWithMoreStreams) {
  Rng data_rng{13};
  auto sample = [&](const int n) {
    std::vector<StreamFigures> streams;
    for (int i = 0; i < n; i++) {
      streams.push_back(make_stream(data_rng.lognormal(4.0, 1.0), 0.0,
                                    data_rng.normal(16.0, 2.0)));
    }
    return streams;
  };
  Rng rng{14};
  const auto small = summarize_scheme(sample(50), rng, 100);
  const auto large = summarize_scheme(sample(5000), rng, 100);
  EXPECT_GT(small.ssim_mean_se_db, large.ssim_mean_se_db);
}

}  // namespace
}  // namespace puffer::stats
