#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "net/bbr.hh"
#include "net/cubic.hh"
#include "net/link.hh"
#include "net/tcp_sender.hh"
#include "net/trace.hh"
#include "net/trace_models.hh"
#include "util/require.hh"
#include "util/running_stats.hh"
#include "util/rng.hh"

namespace puffer::net {
namespace {

constexpr double kMbps = 1e6 / 8.0;  // bytes/s per Mbit/s

TEST(Trace, CapacityLookupAndClamping) {
  ThroughputTrace trace{{100.0, 200.0, 300.0}, 1.0};
  EXPECT_DOUBLE_EQ(trace.capacity_at(-1.0), 100.0);
  EXPECT_DOUBLE_EQ(trace.capacity_at(0.5), 100.0);
  EXPECT_DOUBLE_EQ(trace.capacity_at(1.5), 200.0);
  EXPECT_DOUBLE_EQ(trace.capacity_at(2.5), 300.0);
  EXPECT_DOUBLE_EQ(trace.capacity_at(99.0), 300.0);  // extends last segment
  EXPECT_DOUBLE_EQ(trace.duration(), 3.0);
  EXPECT_DOUBLE_EQ(trace.mean_rate(), 200.0);
}

TEST(Trace, RejectsEmptyAndNegative) {
  EXPECT_THROW(ThroughputTrace({}, 1.0), RequirementError);
  EXPECT_THROW(ThroughputTrace({-1.0}, 1.0), RequirementError);
  EXPECT_THROW(ThroughputTrace({1.0}, 0.0), RequirementError);
}

TEST(Link, ConservesBytes) {
  ThroughputTrace trace{{1000.0}, 1.0};
  LinkSimulator link{trace, 5000.0};
  double offered_total = 0.0, delivered_total = 0.0, lost_total = 0.0;
  Rng rng{3};
  double now = 0.0;
  for (int i = 0; i < 1000; i++) {
    const double offered = rng.uniform(0.0, 50.0);
    const auto result = link.step(now, 0.01, offered);
    offered_total += offered;
    delivered_total += result.delivered_bytes;
    lost_total += result.lost_bytes;
    now += 0.01;
  }
  EXPECT_NEAR(offered_total, delivered_total + lost_total + link.queue_bytes(),
              1e-6);
}

TEST(Link, DrainRateBoundedByCapacity) {
  ThroughputTrace trace{{1000.0}, 1.0};
  LinkSimulator link{trace, 1e9};
  link.step(0.0, 1.0, 5000.0);
  // At 1000 B/s for 1 s only 1000 bytes can exit.
  EXPECT_NEAR(link.queue_bytes(), 4000.0, 1e-9);
}

TEST(Link, DropTailLossBeyondQueueCapacity) {
  ThroughputTrace trace{{1.0}, 1.0};  // nearly stalled link
  LinkSimulator link{trace, 1000.0};
  const auto result = link.step(0.0, 0.01, 2500.0);
  EXPECT_NEAR(result.lost_bytes, 1500.0, 1.0);
  EXPECT_NEAR(link.queue_bytes(), 1000.0 - result.delivered_bytes, 1e-9);
}

TEST(Link, ZeroCapacitySegmentHoldsQueue) {
  // A dead middle segment: nothing drains, nothing is lost (queue permitting),
  // and an idle step leaves the backlog untouched while capacity is zero.
  ThroughputTrace trace{{1000.0, 0.0, 1000.0}, 1.0};
  LinkSimulator link{trace, 1e6};
  const auto during_outage = link.step(1.2, 0.1, 500.0);
  EXPECT_DOUBLE_EQ(during_outage.delivered_bytes, 0.0);
  EXPECT_DOUBLE_EQ(during_outage.lost_bytes, 0.0);
  EXPECT_DOUBLE_EQ(link.queue_bytes(), 500.0);
  link.step(1.4, 0.5, 0.0);  // still inside the dead segment
  EXPECT_DOUBLE_EQ(link.queue_bytes(), 500.0);
  // Once capacity returns, the backlog drains at line rate.
  const auto after = link.step(2.0, 0.5, 0.0);
  EXPECT_DOUBLE_EQ(after.delivered_bytes, 500.0);
  EXPECT_DOUBLE_EQ(link.queue_bytes(), 0.0);
}

TEST(Link, OutageReportsCappedBlockedDelay) {
  // Regression: a zero-capacity outage used to report the backlog divided by
  // a 1 byte/s floor (~250,000 s of "queueing delay" for a 250 kB queue).
  // It must pin at the outage horizon and raise the blocked flag instead.
  ThroughputTrace trace{{1000.0, 0.0}, 1.0};
  LinkSimulator link{trace, 1e6};
  const auto live = link.step(0.0, 0.5, 2000.0);
  EXPECT_FALSE(live.blocked);
  EXPECT_DOUBLE_EQ(live.delivered_bytes, 500.0);
  EXPECT_DOUBLE_EQ(live.queue_delay_s, 1.5);  // 1500 B backlog at 1000 B/s
  const auto outage = link.step(1.2, 0.1, 100.0);
  EXPECT_TRUE(outage.blocked);
  EXPECT_DOUBLE_EQ(outage.queue_delay_s, LinkSimulator::kQueueDelayCapS);
  // An empty queue during an outage is just idle: no delay, not blocked.
  ThroughputTrace dead{{0.0}, 1.0};
  LinkSimulator idle{dead, 1e6};
  const auto nothing = idle.step(0.0, 0.1, 0.0);
  EXPECT_FALSE(nothing.blocked);
  EXPECT_DOUBLE_EQ(nothing.queue_delay_s, 0.0);
}

TEST(Link, DelayUsesSameMidStepSampleAsDrain) {
  // Regression: the drain used the mid-step capacity but the delay divided
  // by the end-of-step capacity, so a segment boundary inside the step made
  // the reported delay disagree with the drain that actually happened. One
  // consistent sample now feeds both.
  ThroughputTrace trace{{1000.0, 4000.0}, 1.0};
  LinkSimulator link{trace, 1e6};
  // Step [0.8, 1.2): the mid-step instant 1.0 lies in the 4000 B/s segment.
  const auto result = link.step(0.8, 0.4, 2000.0);
  EXPECT_DOUBLE_EQ(result.delivered_bytes, 1600.0);   // 4000 * 0.4
  EXPECT_DOUBLE_EQ(result.queue_delay_s, 400.0 / 4000.0);
}

TEST(Link, OverflowAccountingConservesBytes) {
  // Conservation under heavy loss: offered = delivered + queued + lost,
  // with a queue small enough that drops actually happen.
  ThroughputTrace trace{{800.0, 0.0, 1500.0, 50.0}, 1.0};
  LinkSimulator link{trace, 600.0};
  Rng rng{9};
  double offered_total = 0.0, delivered_total = 0.0, lost_total = 0.0;
  bool saw_loss = false;
  double now = 0.0;
  for (int i = 0; i < 2000; i++) {
    const double offered = rng.uniform(0.0, 30.0);
    const auto result = link.step(now, 0.002, offered);
    offered_total += offered;
    delivered_total += result.delivered_bytes;
    lost_total += result.lost_bytes;
    saw_loss = saw_loss || result.lost_bytes > 0.0;
    // The queue never exceeds its capacity.
    EXPECT_LE(link.queue_bytes(), link.queue_capacity() + 1e-9);
    now += 0.002;
  }
  EXPECT_TRUE(saw_loss);
  EXPECT_GT(lost_total, 0.0);
  EXPECT_NEAR(offered_total,
              delivered_total + lost_total + link.queue_bytes(), 1e-6);
}

TEST(Link, StepRejectsBadArguments) {
  ThroughputTrace trace{{1000.0}, 1.0};
  LinkSimulator link{trace, 1000.0};
  EXPECT_THROW(link.step(0.0, 0.0, 10.0), RequirementError);
  EXPECT_THROW(link.step(0.0, -1.0, 10.0), RequirementError);
  EXPECT_THROW(link.step(0.0, 0.1, -5.0), RequirementError);
  EXPECT_THROW(LinkSimulator(trace, 0.0), RequirementError);
}

TEST(Link, QueueDelayTracksBacklog) {
  ThroughputTrace trace{{1000.0}, 1.0};
  LinkSimulator link{trace, 1e9};
  const auto result = link.step(0.0, 0.001, 2001.0);
  // ~2000 bytes backlog at 1000 B/s -> ~2 s queueing delay.
  EXPECT_NEAR(result.queue_delay_s, 2.0, 0.01);
}

NetworkPath constant_path(const double rate_mbps, const double rtt_s = 0.040,
                          const double duration_s = 3600.0) {
  const size_t n = static_cast<size_t>(duration_s / 1.0) + 1;
  return NetworkPath{ThroughputTrace{std::vector<double>(n, rate_mbps * kMbps),
                                     1.0},
                     rtt_s};
}

TEST(TcpSender, TransferTimeRoughlyMatchesCapacity) {
  const NetworkPath path = constant_path(8.0);
  TcpSender sender{path, std::make_unique<BbrModel>(),
                   TcpSender::default_queue_capacity(path)};
  // Warm up past slow start.
  sender.transfer(2e6);
  const TransferResult result = sender.transfer(4e6);  // 4 MB at 1 MB/s
  EXPECT_NEAR(result.transmission_time(), 4.0, 1.2);
}

TEST(TcpSender, FasterLinkFasterTransfer) {
  const NetworkPath slow = constant_path(3.0);
  const NetworkPath fast = constant_path(30.0);
  TcpSender s1{slow, std::make_unique<BbrModel>(),
               TcpSender::default_queue_capacity(slow)};
  TcpSender s2{fast, std::make_unique<BbrModel>(),
               TcpSender::default_queue_capacity(fast)};
  s1.transfer(1e6);
  s2.transfer(1e6);
  const double t1 = s1.transfer(2e6).transmission_time();
  const double t2 = s2.transfer(2e6).transmission_time();
  EXPECT_GT(t1, 3.0 * t2);
}

TEST(TcpSender, SlowStartRampVisibleOnFirstTransfer) {
  const NetworkPath path = constant_path(50.0);
  TcpSender sender{path, std::make_unique<BbrModel>(),
                   TcpSender::default_queue_capacity(path)};
  // First small transfer is RTT-bound, not capacity-bound: 100 kB at 50
  // Mbit/s would take 16 ms at line rate but needs several RTTs of ramp.
  const double t_first = sender.transfer(100e3).transmission_time();
  EXPECT_GT(t_first, 0.050);
  // After warmup the same transfer is much faster.
  sender.transfer(5e6);
  const double t_warm = sender.transfer(100e3).transmission_time();
  EXPECT_LT(t_warm, t_first);
}

TEST(TcpSender, TcpInfoPlausibleAfterTraffic) {
  const NetworkPath path = constant_path(10.0, 0.060);
  TcpSender sender{path, std::make_unique<BbrModel>(),
                   TcpSender::default_queue_capacity(path)};
  sender.transfer(3e6);
  const TcpInfo& info = sender.info();
  EXPECT_GT(info.cwnd_pkts, 0.0);
  EXPECT_GE(info.srtt_s, 0.055);         // at least propagation
  EXPECT_LT(info.srtt_s, 1.0);           // bounded queueing
  EXPECT_NEAR(info.min_rtt_s, 0.060, 0.01);
  EXPECT_GT(info.delivery_rate_bps, 0.3 * 10.0 * kMbps);
  EXPECT_LT(info.delivery_rate_bps, 1.5 * 10.0 * kMbps);
}

TEST(TcpSender, DeliveryRateStickyAcrossIdle) {
  const NetworkPath path = constant_path(10.0);
  TcpSender sender{path, std::make_unique<BbrModel>(),
                   TcpSender::default_queue_capacity(path)};
  sender.transfer(3e6);
  const double rate_before = sender.info().delivery_rate_bps;
  sender.idle_until(sender.now() + 30.0);
  EXPECT_DOUBLE_EQ(sender.info().delivery_rate_bps, rate_before);
}

TEST(TcpSender, IdleAdvancesClockMonotonically) {
  const NetworkPath path = constant_path(10.0);
  TcpSender sender{path, std::make_unique<BbrModel>(),
                   TcpSender::default_queue_capacity(path)};
  const double t0 = sender.now();
  sender.idle_until(t0 + 5.0);
  EXPECT_NEAR(sender.now(), t0 + 5.0, 0.11);
  EXPECT_THROW(sender.idle_until(t0), RequirementError);
}

TEST(TcpSender, OutageDeadlineBoundsTransfer) {
  // A path that is effectively dead: 8 B/s.
  NetworkPath path{ThroughputTrace{std::vector<double>(4000, 8.0), 1.0}, 0.040};
  TcpSender sender{path, std::make_unique<BbrModel>(), 64e3};
  const TransferResult result = sender.transfer(5e6);
  EXPECT_LE(result.transmission_time(), 601.0);
}

TEST(TcpSender, MeanDeliveryRateReflectsPath) {
  const NetworkPath path = constant_path(8.0);
  TcpSender sender{path, std::make_unique<BbrModel>(),
                   TcpSender::default_queue_capacity(path)};
  for (int i = 0; i < 10; i++) {
    sender.transfer(1e6);
  }
  EXPECT_GT(sender.mean_delivery_rate(), 0.4 * 8.0 * kMbps);
  EXPECT_LT(sender.mean_delivery_rate(), 1.2 * 8.0 * kMbps);
}

/// Both congestion controls should achieve reasonable utilization on a
/// steady link across a range of rates.
class CcUtilization
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(CcUtilization, AchievesReasonableUtilization) {
  const auto& [cc_name, rate_mbps] = GetParam();
  const NetworkPath path = constant_path(rate_mbps);
  std::unique_ptr<CongestionControl> cc;
  if (cc_name == "bbr") {
    cc = std::make_unique<BbrModel>();
  } else {
    cc = std::make_unique<CubicModel>();
  }
  TcpSender sender{path, std::move(cc),
                   TcpSender::default_queue_capacity(path)};
  sender.transfer(2e6);  // warm up
  const double bytes = rate_mbps * kMbps * 10.0;  // ~10 s of data
  const double t = sender.transfer(bytes).transmission_time();
  const double utilization = bytes / (rate_mbps * kMbps) / t;
  EXPECT_GT(utilization, 0.55) << cc_name << " @ " << rate_mbps << " Mbps";
  EXPECT_LT(utilization, 1.05) << cc_name << " @ " << rate_mbps << " Mbps";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CcUtilization,
    ::testing::Combine(::testing::Values("bbr", "cubic"),
                       ::testing::Values(1.0, 3.0, 10.0, 40.0)));

TEST(Bbr, ReachesProbeBwOnSteadyLink) {
  const NetworkPath path = constant_path(10.0);
  auto bbr_owner = std::make_unique<BbrModel>();
  BbrModel* bbr = bbr_owner.get();
  TcpSender sender{path, std::move(bbr_owner),
                   TcpSender::default_queue_capacity(path)};
  sender.transfer(8e6);
  EXPECT_EQ(bbr->mode(), BbrModel::Mode::kProbeBw);
  EXPECT_NEAR(bbr->btl_bw_bps(), 10.0 * kMbps, 4.0 * kMbps);
}

TEST(Bbr, TracksCapacityDrop) {
  std::vector<double> rates(200, 20.0 * kMbps);
  for (size_t i = 60; i < rates.size(); i++) {
    rates[i] = 2.0 * kMbps;
  }
  const NetworkPath path{ThroughputTrace{rates, 1.0}, 0.040};
  auto bbr_owner = std::make_unique<BbrModel>();
  BbrModel* bbr = bbr_owner.get();
  TcpSender sender{path, std::move(bbr_owner), 200e3};
  sender.transfer(20e6);  // rides through the drop at t=60s
  while (sender.now() < 80.0) {
    sender.transfer(100e3);
  }
  EXPECT_LT(bbr->btl_bw_bps(), 4.0 * kMbps);
}

TEST(Bbr, MinRttWindowExpiresStaleSamples) {
  // Regression: min_rtt was a lifetime monotone minimum seeded at 100 ms, so
  // it could only ever shrink. BBR.RTprop is a ~10 s windowed minimum; after
  // the path's RTT rises and the window passes, the estimate must follow.
  BbrModel bbr;
  CcSample sample;
  sample.dt_s = 0.01;
  sample.acked_bytes = 3000.0;
  sample.now_s = 0.0;
  sample.rtt_sample_s = 0.050;
  sample.min_rtt_s = 0.050;
  bbr.on_sample(sample);
  EXPECT_DOUBLE_EQ(bbr.min_rtt_s(), 0.050);
  for (double t = 0.1; t < 15.0; t += 0.1) {
    sample.now_s = t;
    sample.rtt_sample_s = 0.200;
    sample.min_rtt_s = 0.200;
    bbr.on_sample(sample);
  }
  EXPECT_DOUBLE_EQ(bbr.min_rtt_s(), 0.200);
}

TEST(Bbr, BandwidthFilterIsWindowedMaxOfUsableSamples) {
  // The bottleneck-bandwidth filter against a brute-force oracle: the max
  // over every usable sample of the last 10 s, or 0 when none remain. A
  // sample is usable when it has a positive rate and is either not
  // app-limited or beats the current estimate. Rates come from a small set
  // so equal rates recur; clock steps include repeats (dt = 0) and gaps
  // over 10 s that empty the window.
  constexpr double kWindowS = 10.0;
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng{seed};
    BbrModel bbr;
    std::vector<std::pair<double, double>> usable;  // (now_s, rate)
    double estimate = 0.0;
    int emptied = 0;
    CcSample sample;
    sample.dt_s = 0.01;
    sample.rtt_sample_s = 0.050;
    sample.min_rtt_s = 0.050;
    for (int step = 0; step < 3000; step++) {
      const double gap = rng.uniform();
      if (gap < 0.2) {
        // repeated now_s
      } else if (gap < 0.97) {
        sample.now_s += rng.uniform(0.001, 0.5);
      } else {
        sample.now_s += rng.uniform(kWindowS, 2.0 * kWindowS);
      }
      sample.delivery_rate_bps =
          rng.bernoulli(0.05)
              ? 0.0
              : 1e5 * static_cast<double>(rng.uniform_int(1, 8));
      sample.app_limited = rng.bernoulli(0.4);
      if (sample.delivery_rate_bps > 0.0 &&
          (!sample.app_limited || sample.delivery_rate_bps > estimate)) {
        usable.emplace_back(sample.now_s, sample.delivery_rate_bps);
      }
      bbr.on_sample(sample);
      estimate = 0.0;
      for (const auto& [when, rate] : usable) {
        if (!(when < sample.now_s - kWindowS)) {
          estimate = std::max(estimate, rate);
        }
      }
      ASSERT_EQ(bbr.btl_bw_bps(), estimate)
          << "seed " << seed << " step " << step;
      emptied += !usable.empty() && estimate == 0.0;
    }
    EXPECT_GT(emptied, 0) << "seed " << seed << " never emptied the window";
  }
}

TEST(Bbr, HighRttPathReachesFullBdpCwnd) {
  // Regression (satellite paths): the 100 ms min_rtt seed acted as a
  // permanent ceiling on a 600 ms path — BBR's cwnd targeted ~1/6 of the
  // true BDP forever. Seeded from the first genuine sample, the window must
  // reach at least ~1 BDP.
  const NetworkPath path{ThroughputTrace{{4.0 * kMbps}, 1.0}, 0.600};
  auto bbr_owner = std::make_unique<BbrModel>();
  BbrModel* bbr = bbr_owner.get();
  TcpSender sender{path, std::move(bbr_owner),
                   TcpSender::default_queue_capacity(path)};
  sender.transfer(2e7);  // long enough to leave startup and settle
  EXPECT_GE(bbr->min_rtt_s(), 0.600);
  const double bdp_bytes = 4.0 * kMbps * 0.600;
  EXPECT_GE(sender.info().cwnd_pkts * 1500.0, 0.9 * bdp_bytes);
}

TEST(Cubic, BacksOffOnLoss) {
  CubicModel cubic;
  const double before = cubic.cwnd_bytes();
  CcSample sample;
  sample.now_s = 1.0;
  sample.dt_s = 0.01;
  sample.acked_bytes = 0.0;
  sample.loss = true;
  cubic.on_sample(sample);
  EXPECT_NEAR(cubic.cwnd_bytes(), before * 0.7, 1.0);
  EXPECT_FALSE(cubic.in_slow_start());
}

TEST(Cubic, SlowStartDoublesPerRtt) {
  CubicModel cubic;
  const double before = cubic.cwnd_bytes();
  CcSample sample;
  sample.now_s = 0.1;
  sample.dt_s = 0.1;
  sample.acked_bytes = before;  // one full window acked
  sample.rtt_sample_s = 0.1;
  cubic.on_sample(sample);
  EXPECT_NEAR(cubic.cwnd_bytes(), 2.0 * before, 1.0);
}

TEST(PufferPaths, SlowPathFractionInRange) {
  PufferPathModel model;
  Rng rng{42};
  int slow = 0;
  const int n = 400;
  for (int i = 0; i < n; i++) {
    const NetworkPath path = model.sample_path(rng, 120.0);
    if (path.trace.mean_rate() < 6.0 * kMbps) {
      slow++;
    }
  }
  const double fraction = static_cast<double>(slow) / n;
  // Paper: "slow" paths carried 16% of viewing time; our path-level mixture
  // should be in the same regime (15-35% of paths).
  EXPECT_GT(fraction, 0.10);
  EXPECT_LT(fraction, 0.40);
}

TEST(PufferPaths, HeavyUpperTail) {
  PufferPathModel model;
  Rng rng{43};
  RunningStats means;
  for (int i = 0; i < 300; i++) {
    means.add(model.sample_path(rng, 60.0).trace.mean_rate() / kMbps);
  }
  // Mean well above median => right-skewed distribution.
  EXPECT_GT(means.max(), 80.0);
  EXPECT_GT(means.mean(), 10.0);
}

TEST(PufferPaths, ContainsOutages) {
  PufferPathModel model;
  Rng rng{44};
  int outage_segments = 0, total = 0;
  for (int i = 0; i < 50; i++) {
    const NetworkPath path = model.sample_path(rng, 1200.0);
    for (const double rate : path.trace.rates()) {
      total++;
      if (rate < 0.2 * kMbps) {
        outage_segments++;
      }
    }
  }
  EXPECT_GT(outage_segments, 0);
  // ... but outages are rare.
  EXPECT_LT(static_cast<double>(outage_segments) / total, 0.05);
}

TEST(FccPaths, StationaryAndBounded) {
  FccTraceModel model;
  Rng rng{45};
  for (int i = 0; i < 100; i++) {
    const NetworkPath path = model.sample_path(rng, 600.0);
    EXPECT_DOUBLE_EQ(path.min_rtt_s, 0.040);  // fixed mahimahi shell delay
    for (const double rate : path.trace.rates()) {
      EXPECT_GE(rate, 0.2 * kMbps - 1.0);
      EXPECT_LE(rate, 12.0 * kMbps + 1.0);  // 12 Mbit/s cap (section 5.2)
    }
  }
}

TEST(FccPaths, LowerThroughputThanPufferOnAverage) {
  FccTraceModel fcc;
  PufferPathModel puffer;
  Rng rng{46};
  RunningStats fcc_rates, puffer_rates;
  for (int i = 0; i < 200; i++) {
    fcc_rates.add(fcc.sample_path(rng, 300.0).trace.mean_rate());
    puffer_rates.add(puffer.sample_path(rng, 300.0).trace.mean_rate());
  }
  EXPECT_LT(fcc_rates.mean(), puffer_rates.mean());
}

TEST(MarkovPaths, VisitsFewDiscreteLevels) {
  MarkovTraceModel model;
  Rng rng{47};
  const NetworkPath path = model.sample_path(rng, 1200.0);  // 200 epochs
  // Round rates to the nearest 0.05 Mbit/s and count distinct levels: the
  // CS2P-style process should show a handful of tight bands (Figure 2a).
  std::vector<double> levels;
  for (const double rate : path.trace.rates()) {
    const double mbps = rate / kMbps;
    bool found = false;
    for (const double level : levels) {
      if (std::abs(level - mbps) < 0.12) {
        found = true;
        break;
      }
    }
    if (!found) {
      levels.push_back(mbps);
    }
  }
  EXPECT_LE(levels.size(), 6u);
  EXPECT_GE(levels.size(), 2u);
}

TEST(MarkovPaths, StatePersistence) {
  MarkovTraceModel model;
  Rng rng{48};
  const NetworkPath path = model.sample_path(rng, 6000.0);
  const auto& rates = path.trace.rates();
  int switches = 0;
  for (size_t i = 1; i < rates.size(); i++) {
    if (std::abs(rates[i] - rates[i - 1]) > 0.1 * kMbps) {
      switches++;
    }
  }
  // ~5% switch probability per epoch.
  const double switch_rate = static_cast<double>(switches) /
                             static_cast<double>(rates.size());
  EXPECT_LT(switch_rate, 0.12);
  EXPECT_GT(switch_rate, 0.005);
}

}  // namespace
}  // namespace puffer::net
