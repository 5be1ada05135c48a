#include <gtest/gtest.h>

#include <cmath>

#include "abr/bba.hh"
#include "abr/throughput_predictors.hh"
#include "test_helpers.hh"
#include "util/require.hh"

namespace puffer::abr {
namespace {

using test::make_lookahead;
using test::make_menu;
using test::record_at_throughput;

TEST(Bba, RateMapEndpoints) {
  Bba bba;
  // Below the reservoir: minimum rate; above the upper reservoir: maximum.
  EXPECT_NEAR(bba.rate_limit_mbps(0.0), 0.2, 1e-9);
  EXPECT_NEAR(bba.rate_limit_mbps(3.0), 0.2, 1e-9);
  EXPECT_NEAR(bba.rate_limit_mbps(14.0), 5.5, 1e-9);
  EXPECT_NEAR(bba.rate_limit_mbps(15.0), 5.5, 1e-9);
}

TEST(Bba, RateMapLinearInCushion) {
  Bba bba;
  const double mid = (3.75 + 13.125) / 2.0;
  EXPECT_NEAR(bba.rate_limit_mbps(mid), (0.2 + 5.5) / 2.0, 1e-9);
  // Monotone.
  double prev = 0.0;
  for (double b = 0.0; b <= 15.0; b += 0.5) {
    const double limit = bba.rate_limit_mbps(b);
    EXPECT_GE(limit, prev - 1e-12);
    prev = limit;
  }
}

TEST(Bba, EmptyBufferPicksLowestRung) {
  Bba bba;
  AbrObservation obs;
  obs.buffer_s = 0.0;
  const auto lookahead = make_lookahead(1);
  EXPECT_EQ(bba.choose_rung(obs, lookahead), 0);
}

TEST(Bba, FullBufferPicksTopRung) {
  Bba bba;
  AbrObservation obs;
  obs.buffer_s = 15.0;
  const auto lookahead = make_lookahead(1);
  EXPECT_EQ(bba.choose_rung(obs, lookahead), media::kNumRungs - 1);
}

TEST(Bba, ChoiceMonotoneInBuffer) {
  Bba bba;
  const auto lookahead = make_lookahead(1);
  int prev = 0;
  for (double b = 0.0; b <= 15.0; b += 0.25) {
    AbrObservation obs;
    obs.buffer_s = b;
    const int rung = bba.choose_rung(obs, lookahead);
    EXPECT_GE(rung, prev);
    prev = rung;
  }
}

TEST(Bba, OversizedChunksForceLowerRung) {
  Bba bba;
  AbrObservation obs;
  obs.buffer_s = 8.0;  // mid-cushion
  const auto normal = make_lookahead(1, 1.0);
  const auto huge = make_lookahead(1, 3.0);  // a complex scene: 3x sizes
  EXPECT_GT(bba.choose_rung(obs, normal), bba.choose_rung(obs, huge));
}

TEST(HarmonicMean, SingleSample) {
  HarmonicMeanPredictor predictor;
  predictor.on_chunk_complete(record_at_throughput(0, 1e6, 2e6));
  EXPECT_NEAR(predictor.predicted_throughput(), 2e6, 1.0);
}

TEST(HarmonicMean, MatchesClosedForm) {
  HarmonicMeanPredictor predictor;
  // Throughputs 1, 2, 4 MB/s -> HM = 3 / (1 + 0.5 + 0.25) = 12/7 MB/s.
  predictor.on_chunk_complete(record_at_throughput(0, 1e6, 1e6));
  predictor.on_chunk_complete(record_at_throughput(1, 1e6, 2e6));
  predictor.on_chunk_complete(record_at_throughput(2, 1e6, 4e6));
  EXPECT_NEAR(predictor.predicted_throughput(), 12.0 / 7.0 * 1e6, 10.0);
}

TEST(HarmonicMean, WindowKeepsLastFive) {
  static_assert(HarmonicMeanPredictor::kWindow == 5);
  HarmonicMeanPredictor predictor;
  for (int i = 0; i < 10; i++) {
    predictor.on_chunk_complete(record_at_throughput(i, 1e6, 1e6));
  }
  // Now five fast samples push the old ones out entirely.
  for (int i = 10; i < 15; i++) {
    predictor.on_chunk_complete(record_at_throughput(i, 1e6, 8e6));
  }
  EXPECT_NEAR(predictor.predicted_throughput(), 8e6, 100.0);
}

TEST(HarmonicMean, HmIsDominatedBySlowSamples) {
  HarmonicMeanPredictor predictor;
  predictor.on_chunk_complete(record_at_throughput(0, 1e6, 10e6));
  predictor.on_chunk_complete(record_at_throughput(1, 1e6, 0.1e6));
  // HM = 2/(0.1+10) per MB ~ 0.198 MB/s: close to the slow sample.
  EXPECT_LT(predictor.predicted_throughput(), 0.25e6);
}

TEST(HarmonicMean, PredictIsPointMassWithTxTime) {
  HarmonicMeanPredictor predictor;
  predictor.on_chunk_complete(record_at_throughput(0, 1e6, 2e6));
  const TxTimeDistribution dist = predictor.predict(0, 4'000'000);
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_DOUBLE_EQ(dist[0].probability, 1.0);
  EXPECT_NEAR(dist[0].time_s, 2.0, 1e-6);
}

TEST(HarmonicMean, ColdStartUsesConservativeDefault) {
  HarmonicMeanPredictor predictor;
  const TxTimeDistribution dist = predictor.predict(0, 375'000);
  ASSERT_EQ(dist.size(), 1u);
  // 375 kB at the 3 Mbit/s cold-start default = 1 s.
  EXPECT_NEAR(dist[0].time_s, 1.0, 1e-6);
}

TEST(HarmonicMean, ResetClearsHistory) {
  HarmonicMeanPredictor predictor;
  predictor.on_chunk_complete(record_at_throughput(0, 1e6, 50e6));
  predictor.reset_session();
  const TxTimeDistribution dist = predictor.predict(0, 375'000);
  EXPECT_NEAR(dist[0].time_s, 1.0, 1e-6);  // back to the cold-start default
}

TEST(RobustPredictor, NoErrorsMeansNoDiscount) {
  RobustThroughputPredictor robust;
  HarmonicMeanPredictor plain;
  robust.on_chunk_complete(record_at_throughput(0, 1e6, 2e6));
  plain.on_chunk_complete(record_at_throughput(0, 1e6, 2e6));
  // Only one sample: no error history yet, so the estimates agree.
  EXPECT_NEAR(robust.predict(0, 1'000'000)[0].time_s,
              plain.predict(0, 1'000'000)[0].time_s, 1e-3);
}

TEST(RobustPredictor, DiscountsAfterVolatileHistory) {
  RobustThroughputPredictor robust;
  HarmonicMeanPredictor plain;
  // Alternate fast/slow: large relative errors accumulate.
  for (int i = 0; i < 6; i++) {
    const double rate = (i % 2 == 0) ? 8e6 : 0.5e6;
    robust.on_chunk_complete(record_at_throughput(i, 1e6, rate));
    plain.on_chunk_complete(record_at_throughput(i, 1e6, rate));
  }
  // The robust estimate must be strictly more pessimistic (longer tx time).
  EXPECT_GT(robust.predict(0, 1'000'000)[0].time_s,
            1.5 * plain.predict(0, 1'000'000)[0].time_s);
}

TEST(RobustPredictor, StableHistoryBarelyDiscounted) {
  RobustThroughputPredictor robust;
  HarmonicMeanPredictor plain;
  for (int i = 0; i < 6; i++) {
    robust.on_chunk_complete(record_at_throughput(i, 1e6, 2e6));
    plain.on_chunk_complete(record_at_throughput(i, 1e6, 2e6));
  }
  EXPECT_NEAR(robust.predict(0, 1'000'000)[0].time_s,
              plain.predict(0, 1'000'000)[0].time_s, 0.02);
}

}  // namespace
}  // namespace puffer::abr
