#ifndef PUFFER_NET_TRACE_MODELS_HH
#define PUFFER_NET_TRACE_MODELS_HH

#include <cstdint>
#include <vector>

#include "net/trace.hh"
#include "util/rng.hh"

namespace puffer::net {

/// A sampled network path: a capacity trace plus path-level latency.
struct NetworkPath {
  ThroughputTrace trace;
  double min_rtt_s = 0.040;  ///< propagation round-trip time
};

/// A path-family generator: samples a complete NetworkPath (capacity trace +
/// RTT) for one session. Implementations must be stateless with respect to
/// sampling — all randomness comes from the caller's Rng — so one generator
/// can be shared by every worker of a parallel trial.
class PathGenerator {
 public:
  virtual ~PathGenerator() = default;
  [[nodiscard]] virtual NetworkPath sample_path(Rng& rng,
                                                double duration_s) const = 0;
};

/// --- Deployment-like paths (the "wild Internet" of the Puffer study) ---
///
/// Heavy-tailed, non-stationary throughput: a lognormal base rate (with a
/// slow-path mixture component so that ~15-25% of paths average under
/// 6 Mbit/s), an Ornstein-Uhlenbeck process in log space for within-session
/// drift, occasional regime shifts (e.g. cross traffic, WiFi handoff), and
/// rare near-outages with heavy-tailed durations. Reproduces the Figure 2b
/// character (no discrete states) and the heavy tails the paper blames for
/// the emulation-to-deployment gap.
class PufferPathModel : public PathGenerator {
 public:
  static constexpr double kSegmentDurationS = 0.5;
  /// Per-segment mean reversion of drift.
  static constexpr double kOuReversion = 0.03;
  /// Per-segment stddev of log-rate drift.
  static constexpr double kOuVolatility = 0.045;
  /// Regime shifts: one per 3 minutes on average.
  static constexpr double kRegimeShiftRateHz = 1.0 / 180.0;
  /// Lognormal factor applied on a shift.
  static constexpr double kRegimeShiftSigma = 0.5;
  /// Exponential outage length.
  static constexpr double kOutageMeanDurationS = 4.0;
  static constexpr double kOutageFloorMbps = 0.05;
  static constexpr double kMaxRateMbps = 400.0;

  /// `log10_rate_sigma` is the spread of path base rates; the default outage
  /// rate is one per 10 minutes on average.
  explicit PufferPathModel(double median_rate_mbps = 14.0,
                           double log10_rate_sigma = 0.55,
                           double outage_rate_hz = 1.0 / 600.0);

  /// Sample a complete path (trace of `duration_s` + RTT) for one session.
  [[nodiscard]] NetworkPath sample_path(Rng& rng,
                                        double duration_s) const override;

 private:
  double median_rate_mbps_;
  double log10_rate_sigma_;
  double outage_rate_hz_;
};

/// --- FCC-broadband-like traces (the Pensieve/mahimahi emulation world) ---
///
/// Stationary, bounded-variation throughput: a per-trace mean drawn from a
/// moderate lognormal, then piecewise-constant 5-second segments wobbling
/// around that mean. No regime shifts, no outages, no heavy tails — by
/// construction, the distribution-shift between this family and
/// PufferPathModel is the phenomenon Figure 11 documents. The default median
/// is Pensieve-style scaled broadband.
class FccTraceModel : public PathGenerator {
 public:
  static constexpr double kSegmentDurationS = 5.0;
  /// Lognormal within-trace variation.
  static constexpr double kWobbleSigma = 0.20;
  static constexpr double kMinRateMbps = 0.2;
  /// Mahimahi shells were capped at 12 Mbps.
  static constexpr double kMaxRateMbps = 12.0;
  /// Fixed 40 ms mahimahi delay (section 5.2).
  static constexpr double kShellRttS = 0.040;

  explicit FccTraceModel(double median_rate_mbps = 2.6,
                         double log10_rate_sigma = 0.30);

  [[nodiscard]] NetworkPath sample_path(Rng& rng,
                                        double duration_s) const override;

 private:
  double median_rate_mbps_;
  double log10_rate_sigma_;
};

/// --- CS2P-style discrete-state Markov throughput (Figure 2a) ---
///
/// A small number of discrete throughput states with sticky transitions and
/// tiny within-state noise. The paper notes Puffer has *not* observed this
/// structure; this model exists to reproduce Figure 2a's contrast.
class MarkovTraceModel : public PathGenerator {
 public:
  /// 6-second epochs as in Figure 2.
  static constexpr double kSegmentDurationS = 6.0;
  static constexpr int kNumStates = 4;
  static constexpr double kMeanRateMbps = 2.7;
  /// Spacing between adjacent states.
  static constexpr double kStateSpreadMbps = 0.25;
  static constexpr double kStayProbability = 0.95;
  static constexpr double kWithinStateSigmaMbps = 0.02;

  [[nodiscard]] NetworkPath sample_path(Rng& rng,
                                        double duration_s) const override;
};

/// --- Markov-modulated cellular (LTE-like mobile access) ---
///
/// A hidden channel-quality chain (deep fade / congested / nominal /
/// excellent) with sticky transitions; each state carries its own mean rate
/// and substantial lognormal within-state noise (fast fading). RTT is higher
/// and more variable than wired access.
class CellularPathModel : public PathGenerator {
 public:
  static constexpr double kSegmentDurationS = 1.0;
  static constexpr double kStayProbability = 0.90;
  /// Lognormal sigma around state mean.
  static constexpr double kWithinStateSigma = 0.35;
  static constexpr double kMedianRttS = 0.070;
  static constexpr double kLogRttSigma = 0.30;

  /// State mean rates, worst to best. The hidden chain walks +-1 state at a
  /// time (channel quality evolves gradually).
  explicit CellularPathModel(
      std::vector<double> state_rates_mbps = {0.3, 2.0, 8.0, 24.0});

  [[nodiscard]] NetworkPath sample_path(Rng& rng,
                                        double duration_s) const override;

 private:
  std::vector<double> state_rates_mbps_;
};

/// --- Diurnal time-of-day capacity (shared access link under peak load) ---
///
/// A lognormal per-path base rate modulated by a 24-hour sinusoid: capacity
/// sags toward `kTroughFraction` of the base at the evening peak hour. Each
/// session starts at a uniformly-sampled time of day, so the family exposes
/// schemes to both quiet-hour and prime-time conditions; within a session
/// the drift is slow, as on real shared links.
class DiurnalPathModel : public PathGenerator {
 public:
  static constexpr double kSegmentDurationS = 2.0;
  static constexpr double kMedianRateMbps = 18.0;
  static constexpr double kLog10RateSigma = 0.35;
  /// Capacity at peak congestion.
  static constexpr double kTroughFraction = 0.30;
  /// Local time of maximum congestion.
  static constexpr double kPeakHour = 21.0;
  /// Lognormal segment-to-segment noise.
  static constexpr double kNoiseSigma = 0.08;
  static constexpr double kMinRttS = 0.030;

  [[nodiscard]] NetworkPath sample_path(Rng& rng,
                                        double duration_s) const override;
};

/// --- Oscillating Wi-Fi (interference / multipath duty cycle) ---
///
/// Last-hop Wi-Fi alternating between a good and a degraded rate with a
/// per-path oscillation period (microwave ovens, neighbouring networks,
/// periodic scans), plus rare deep fades when the client moves out of range.
class WifiPathModel : public PathGenerator {
 public:
  static constexpr double kSegmentDurationS = 0.5;
  /// Degraded rate as fraction of good.
  static constexpr double kDegradedFraction = 0.15;
  /// Each path samples its oscillation period from [kMinPeriodS, kMaxPeriodS].
  static constexpr double kMinPeriodS = 8.0;
  static constexpr double kMaxPeriodS = 40.0;
  /// Deep fades: one per 5 minutes on average.
  static constexpr double kFadeRateHz = 1.0 / 300.0;
  static constexpr double kFadeMeanDurationS = 2.0;
  static constexpr double kFadeFloorMbps = 0.1;
  static constexpr double kNoiseSigma = 0.15;
  static constexpr double kMinRttS = 0.020;

  /// `duty_cycle` is the fraction of each period spent in the good state.
  explicit WifiPathModel(double good_rate_mbps = 45.0,
                         double duty_cycle = 0.65);

  [[nodiscard]] NetworkPath sample_path(Rng& rng,
                                        double duration_s) const override;

 private:
  double good_rate_mbps_;
  double duty_cycle_;
};

/// --- High-RTT lossy satellite (GEO access) ---
///
/// Geostationary-orbit access: ~600 ms propagation RTT, moderate capacity,
/// and rain-fade events that attenuate the link heavily for tens of seconds.
/// The long feedback loop (not raw capacity) is what stresses ABR here.
class SatellitePathModel : public PathGenerator {
 public:
  static constexpr double kSegmentDurationS = 2.0;
  static constexpr double kMedianRateMbps = 16.0;
  static constexpr double kLog10RateSigma = 0.20;
  /// GEO propagation delay.
  static constexpr double kMinRttS = 0.600;
  /// Lognormal spread of per-path RTT.
  static constexpr double kRttJitterSigma = 0.05;
  static constexpr double kRainFadeRateHz = 1.0 / 400.0;
  static constexpr double kRainFadeMeanDurationS = 30.0;
  /// Capacity multiplier during fade.
  static constexpr double kRainFadeAttenuation = 0.08;
  static constexpr double kNoiseSigma = 0.12;

  [[nodiscard]] NetworkPath sample_path(Rng& rng,
                                        double duration_s) const override;
};

}  // namespace puffer::net

#endif  // PUFFER_NET_TRACE_MODELS_HH
