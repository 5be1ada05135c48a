#ifndef PUFFER_STATS_BOOTSTRAP_HH
#define PUFFER_STATS_BOOTSTRAP_HH

#include <span>
#include <vector>

#include "util/rng.hh"

namespace puffer::stats {

/// A two-sided confidence interval around a point estimate.
struct ConfidenceInterval {
  double point = 0.0;
  double lower = 0.0;
  double upper = 0.0;

  /// Half-width relative to the point estimate (the paper quotes CI widths
  /// as a percentage of the mean, e.g. "±10% to ±17%"). A zero/near-zero
  /// point estimate is handled deliberately: 0 when the interval is
  /// degenerate (no width around nothing), +infinity otherwise.
  [[nodiscard]] double relative_half_width() const;

  /// Do two intervals overlap? (Used for "statistically indistinguishable".)
  [[nodiscard]] bool overlaps(const ConfidenceInterval& other) const;
};

/// Coverage of every bootstrap interval: the paper's 95% intervals.
inline constexpr double kBootstrapConfidence = 0.95;

/// Per-stream observation for ratio statistics: the paper's rebuffering
/// (stall) ratio is total stalled time over total watch time across streams.
struct RatioObservation {
  double numerator = 0.0;    ///< e.g. seconds stalled in this stream
  double denominator = 0.0;  ///< e.g. seconds watched in this stream
};

/// Percentile-bootstrap confidence interval for a ratio-of-sums statistic
/// (sum of numerators / sum of denominators), resampling whole streams with
/// replacement — the paper's method for stall-ratio uncertainty
/// ("simulating streams drawn empirically from each scheme's observed
/// distribution", section 3.4).
ConfidenceInterval bootstrap_ratio_ci(std::span<const RatioObservation> streams,
                                      Rng& rng, int replicates = 1000);

/// Percentile-bootstrap CI for the mean of a sample, resampling values with
/// replacement.
ConfidenceInterval bootstrap_mean_ci(std::span<const double> values, Rng& rng,
                                     int replicates = 1000);

/// Quantile of a sample (linear interpolation); q in [0, 1].
double quantile(std::vector<double> values, double q);

}  // namespace puffer::stats

#endif  // PUFFER_STATS_BOOTSTRAP_HH
