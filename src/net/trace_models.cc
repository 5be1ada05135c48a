#include "net/trace_models.hh"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "util/require.hh"

namespace puffer::net {

namespace {

constexpr double kMbps = 1e6 / 8.0;  // bytes per second in one Mbit/s

size_t segments_for(const double duration_s, const double segment_s) {
  return static_cast<size_t>(std::ceil(duration_s / segment_s)) + 1;
}

}  // namespace

PufferPathModel::PufferPathModel(const double median_rate_mbps,
                                 const double log10_rate_sigma,
                                 const double outage_rate_hz)
    : median_rate_mbps_(median_rate_mbps),
      log10_rate_sigma_(log10_rate_sigma),
      outage_rate_hz_(outage_rate_hz) {
  require(median_rate_mbps_ > 0.0, "PufferPathModel: bad median rate");
}

NetworkPath PufferPathModel::sample_path(Rng& rng, const double duration_s) const {
  const size_t n = segments_for(duration_s, kSegmentDurationS);

  // Path-level base rate: lognormal across paths (heavy upper tail; the lower
  // tail forms the "slow path" population of Figure 8's right panel).
  const double log10_base =
      std::log10(median_rate_mbps_) + rng.normal(0.0, log10_rate_sigma_);
  const double base_mbps = std::pow(10.0, log10_base);

  // Path-level RTT: correlated with path speed (slow paths tend to sit behind
  // longer/loaded links); lognormal around 40 ms.
  const double rtt_shift = std::clamp(0.3 * (std::log10(median_rate_mbps_) -
                                             log10_base),
                                      -0.3, 0.6);
  const double min_rtt =
      std::clamp(0.040 * std::exp(rng.normal(rtt_shift, 0.45)), 0.004, 0.800);

  std::vector<double> rates(n);
  double drift = 0.0;          // OU process in log space
  double regime = 0.0;         // cumulative log regime shift
  double outage_left_s = 0.0;  // remaining outage duration

  // Per-segment arrival probabilities of the two Poisson processes.
  const double dt = kSegmentDurationS;
  const double p_regime_shift = 1.0 - std::exp(-kRegimeShiftRateHz * dt);
  const double p_outage = 1.0 - std::exp(-outage_rate_hz_ * dt);
  for (size_t i = 0; i < n; i++) {
    // OU drift.
    drift += -kOuReversion * drift + rng.normal(0.0, kOuVolatility);
    // Regime shifts arrive as a Poisson process.
    if (rng.bernoulli(p_regime_shift)) {
      regime += rng.normal(0.0, kRegimeShiftSigma);
      // Pull extreme regimes gently back toward the base rate.
      regime = std::clamp(regime, -2.5, 1.5);
    }
    // Outages.
    if (outage_left_s <= 0.0 && rng.bernoulli(p_outage)) {
      outage_left_s = rng.exponential(1.0 / kOutageMeanDurationS);
    }

    double rate_mbps = base_mbps * std::exp(drift + regime);
    if (outage_left_s > 0.0) {
      rate_mbps = std::min(rate_mbps, kOutageFloorMbps *
                                          std::exp(rng.normal(0.0, 0.5)));
      outage_left_s -= dt;
    }
    rates[i] = std::clamp(rate_mbps, 0.008, kMaxRateMbps) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), kSegmentDurationS},
                     min_rtt};
}

FccTraceModel::FccTraceModel(const double median_rate_mbps,
                             const double log10_rate_sigma)
    : median_rate_mbps_(median_rate_mbps), log10_rate_sigma_(log10_rate_sigma) {
  require(median_rate_mbps_ > 0.0, "FccTraceModel: bad median rate");
}

NetworkPath FccTraceModel::sample_path(Rng& rng, const double duration_s) const {
  const size_t n = segments_for(duration_s, kSegmentDurationS);

  const double log10_base =
      std::log10(median_rate_mbps_) + rng.normal(0.0, log10_rate_sigma_);
  const double base_mbps = std::pow(10.0, log10_base);

  std::vector<double> rates(n);
  for (size_t i = 0; i < n; i++) {
    const double rate_mbps =
        base_mbps * std::exp(rng.normal(0.0, kWobbleSigma));
    rates[i] = std::clamp(rate_mbps, kMinRateMbps, kMaxRateMbps) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), kSegmentDurationS},
                     kShellRttS};
}

static_assert(MarkovTraceModel::kNumStates >= 2,
              "MarkovTraceModel: need >= 2 states");
static_assert(MarkovTraceModel::kStayProbability > 0.0 &&
                  MarkovTraceModel::kStayProbability < 1.0,
              "MarkovTraceModel: stay probability in (0,1)");

NetworkPath MarkovTraceModel::sample_path(Rng& rng, const double duration_s) const {
  const size_t n = segments_for(duration_s, kSegmentDurationS);

  // State levels symmetric around the mean rate.
  std::vector<double> levels(static_cast<size_t>(kNumStates));
  for (int s = 0; s < kNumStates; s++) {
    levels[static_cast<size_t>(s)] =
        kMeanRateMbps + (s - (kNumStates - 1) / 2.0) * kStateSpreadMbps;
  }

  int state = static_cast<int>(rng.uniform_int(0, kNumStates - 1));
  std::vector<double> rates(n);
  for (size_t i = 0; i < n; i++) {
    if (!rng.bernoulli(kStayProbability)) {
      // Move to a uniformly-chosen different state (CS2P-style jumps).
      int next = static_cast<int>(rng.uniform_int(0, kNumStates - 2));
      if (next >= state) {
        next++;
      }
      state = next;
    }
    const double rate_mbps =
        std::max(0.05, levels[static_cast<size_t>(state)] +
                           rng.normal(0.0, kWithinStateSigmaMbps));
    rates[i] = rate_mbps * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), kSegmentDurationS},
                     0.040};
}

static_assert(CellularPathModel::kStayProbability > 0.0 &&
                  CellularPathModel::kStayProbability < 1.0,
              "CellularPathModel: stay probability in (0,1)");

CellularPathModel::CellularPathModel(std::vector<double> state_rates_mbps)
    : state_rates_mbps_(std::move(state_rates_mbps)) {
  require(state_rates_mbps_.size() >= 2, "CellularPathModel: need >= 2 states");
  for (const double rate : state_rates_mbps_) {
    require(rate > 0.0, "CellularPathModel: state rates must be positive");
  }
}

NetworkPath CellularPathModel::sample_path(Rng& rng,
                                           const double duration_s) const {
  const size_t n = segments_for(duration_s, kSegmentDurationS);
  const int num_states = static_cast<int>(state_rates_mbps_.size());

  const double min_rtt = std::clamp(
      kMedianRttS * std::exp(rng.normal(0.0, kLogRttSigma)), 0.020, 0.400);

  // Start biased toward the middle of the chain (nominal coverage).
  int state = static_cast<int>(rng.uniform_int(num_states / 2,
                                               num_states - 1));
  std::vector<double> rates(n);
  for (size_t i = 0; i < n; i++) {
    if (!rng.bernoulli(kStayProbability)) {
      // Channel quality walks one state at a time.
      const int step = rng.bernoulli(0.5) ? 1 : -1;
      state = std::clamp(state + step, 0, num_states - 1);
    }
    const double mean = state_rates_mbps_[static_cast<size_t>(state)];
    const double rate_mbps =
        mean * std::exp(rng.normal(0.0, kWithinStateSigma));
    rates[i] = std::clamp(rate_mbps, 0.02, 150.0) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), kSegmentDurationS},
                     min_rtt};
}

static_assert(DiurnalPathModel::kMedianRateMbps > 0.0,
              "DiurnalPathModel: bad median rate");
static_assert(DiurnalPathModel::kTroughFraction > 0.0 &&
                  DiurnalPathModel::kTroughFraction <= 1.0,
              "DiurnalPathModel: trough fraction in (0,1]");

NetworkPath DiurnalPathModel::sample_path(Rng& rng,
                                          const double duration_s) const {
  const size_t n = segments_for(duration_s, kSegmentDurationS);

  const double log10_base =
      std::log10(kMedianRateMbps) + rng.normal(0.0, kLog10RateSigma);
  const double base_mbps = std::pow(10.0, log10_base);
  // Session starts at a uniform time of day.
  const double start_hour = rng.uniform(0.0, 24.0);

  std::vector<double> rates(n);
  for (size_t i = 0; i < n; i++) {
    const double hour = start_hour + static_cast<double>(i) *
                                         kSegmentDurationS / 3600.0;
    // Congestion factor: 1 off-peak, kTroughFraction at the peak hour.
    const double phase = 2.0 * std::numbers::pi * (hour - kPeakHour) / 24.0;
    const double congestion =
        1.0 - (1.0 - kTroughFraction) * 0.5 * (1.0 + std::cos(phase));
    const double rate_mbps = base_mbps * congestion *
                             std::exp(rng.normal(0.0, kNoiseSigma));
    rates[i] = std::clamp(rate_mbps, 0.05, 400.0) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), kSegmentDurationS},
                     kMinRttS};
}

static_assert(WifiPathModel::kDegradedFraction > 0.0 &&
                  WifiPathModel::kDegradedFraction < 1.0,
              "WifiPathModel: degraded fraction in (0,1)");
static_assert(WifiPathModel::kMinPeriodS > 0.0 &&
                  WifiPathModel::kMaxPeriodS >= WifiPathModel::kMinPeriodS,
              "WifiPathModel: bad oscillation period range");

WifiPathModel::WifiPathModel(const double good_rate_mbps,
                             const double duty_cycle)
    : good_rate_mbps_(good_rate_mbps), duty_cycle_(duty_cycle) {
  require(good_rate_mbps_ > 0.0, "WifiPathModel: bad good rate");
  require(duty_cycle_ > 0.0 && duty_cycle_ < 1.0,
          "WifiPathModel: duty cycle in (0,1)");
}

NetworkPath WifiPathModel::sample_path(Rng& rng,
                                       const double duration_s) const {
  const size_t n = segments_for(duration_s, kSegmentDurationS);

  // Per-path oscillation: period, phase, and how sharply the AP degrades.
  const double period_s = rng.uniform(kMinPeriodS, kMaxPeriodS);
  const double phase_s = rng.uniform(0.0, period_s);
  const double good_mbps = good_rate_mbps_ * std::exp(rng.normal(0.0, 0.25));
  const double degraded_mbps = good_mbps * kDegradedFraction;

  std::vector<double> rates(n);
  double fade_left_s = 0.0;
  const double dt = kSegmentDurationS;
  const double p_fade = 1.0 - std::exp(-kFadeRateHz * dt);
  for (size_t i = 0; i < n; i++) {
    const double t = phase_s + static_cast<double>(i) * dt;
    const double cycle_pos = t / period_s - std::floor(t / period_s);
    double rate_mbps = cycle_pos < duty_cycle_ ? good_mbps : degraded_mbps;

    if (fade_left_s <= 0.0 && rng.bernoulli(p_fade)) {
      fade_left_s = rng.exponential(1.0 / kFadeMeanDurationS);
    }
    if (fade_left_s > 0.0) {
      rate_mbps = std::min(rate_mbps, kFadeFloorMbps);
      fade_left_s -= dt;
    }

    rate_mbps *= std::exp(rng.normal(0.0, kNoiseSigma));
    rates[i] = std::clamp(rate_mbps, 0.02, 300.0) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), kSegmentDurationS},
                     kMinRttS};
}

static_assert(SatellitePathModel::kMedianRateMbps > 0.0,
              "SatellitePathModel: bad rate");
static_assert(SatellitePathModel::kMinRttS > 0.0, "SatellitePathModel: bad RTT");
static_assert(SatellitePathModel::kRainFadeAttenuation > 0.0 &&
                  SatellitePathModel::kRainFadeAttenuation <= 1.0,
              "SatellitePathModel: attenuation in (0,1]");

NetworkPath SatellitePathModel::sample_path(Rng& rng,
                                            const double duration_s) const {
  const size_t n = segments_for(duration_s, kSegmentDurationS);

  const double log10_base =
      std::log10(kMedianRateMbps) + rng.normal(0.0, kLog10RateSigma);
  const double base_mbps = std::pow(10.0, log10_base);
  const double min_rtt = std::clamp(
      kMinRttS * std::exp(rng.normal(0.0, kRttJitterSigma)), 0.450, 0.900);

  std::vector<double> rates(n);
  double fade_left_s = 0.0;
  const double dt = kSegmentDurationS;
  const double p_fade = 1.0 - std::exp(-kRainFadeRateHz * dt);
  for (size_t i = 0; i < n; i++) {
    if (fade_left_s <= 0.0 && rng.bernoulli(p_fade)) {
      fade_left_s = rng.exponential(1.0 / kRainFadeMeanDurationS);
    }
    double rate_mbps = base_mbps * std::exp(rng.normal(0.0, kNoiseSigma));
    if (fade_left_s > 0.0) {
      rate_mbps *= kRainFadeAttenuation;
      fade_left_s -= dt;
    }
    rates[i] = std::clamp(rate_mbps, 0.05, 200.0) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), kSegmentDurationS},
                     min_rtt};
}

}  // namespace puffer::net
