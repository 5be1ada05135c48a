#include "stats/bootstrap.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hh"

namespace puffer::stats {

namespace {

/// Mass in each tail outside the interval.
constexpr double kAlpha = (1.0 - kBootstrapConfidence) / 2.0;

}  // namespace

double ConfidenceInterval::relative_half_width() const {
  const double half_width = (upper - lower) / 2.0;
  // A zero / near-zero point estimate (e.g. a scheme that never stalled)
  // makes "width as a fraction of the point" ill-defined: report 0 for a
  // degenerate interval and infinity otherwise, rather than dividing into
  // a denormal and returning an astronomically large finite ratio.
  if (std::abs(point) < 1e-12) {
    return half_width == 0.0 ? 0.0
                             : std::numeric_limits<double>::infinity();
  }
  return half_width / std::abs(point);
}

bool ConfidenceInterval::overlaps(const ConfidenceInterval& other) const {
  return lower <= other.upper && other.lower <= upper;
}

double quantile(std::vector<double> values, const double q) {
  require(!values.empty(), "quantile: empty sample");
  require(q >= 0.0 && q <= 1.0, "quantile: q must be in [0,1]");
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<size_t>(std::floor(position));
  const auto high = static_cast<size_t>(std::ceil(position));
  const double fraction = position - static_cast<double>(low);
  return values[low] + fraction * (values[high] - values[low]);
}

ConfidenceInterval bootstrap_ratio_ci(
    const std::span<const RatioObservation> streams, Rng& rng,
    const int replicates) {
  require(!streams.empty(), "bootstrap_ratio_ci: empty sample");
  require(replicates >= 10, "bootstrap_ratio_ci: too few replicates");

  double num = 0.0, den = 0.0;
  for (const auto& s : streams) {
    num += s.numerator;
    den += s.denominator;
  }
  require(den > 0.0, "bootstrap_ratio_ci: zero total denominator");

  std::vector<double> replicate_values(static_cast<size_t>(replicates));
  const size_t n = streams.size();
  for (auto& value : replicate_values) {
    double rnum = 0.0, rden = 0.0;
    for (size_t i = 0; i < n; i++) {
      const auto pick = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(n) - 1));
      rnum += streams[pick].numerator;
      rden += streams[pick].denominator;
    }
    value = rden > 0.0 ? rnum / rden : 0.0;
  }

  ConfidenceInterval ci;
  ci.point = num / den;
  ci.lower = quantile(replicate_values, kAlpha);
  ci.upper = quantile(replicate_values, 1.0 - kAlpha);
  return ci;
}

ConfidenceInterval bootstrap_mean_ci(const std::span<const double> values,
                                     Rng& rng, const int replicates) {
  require(!values.empty(), "bootstrap_mean_ci: empty sample");

  std::vector<double> replicate_values(static_cast<size_t>(replicates));
  const size_t n = values.size();
  for (auto& value : replicate_values) {
    double total = 0.0;
    for (size_t i = 0; i < n; i++) {
      const auto pick = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(n) - 1));
      total += values[pick];
    }
    value = total / static_cast<double>(n);
  }

  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  ConfidenceInterval ci;
  ci.point = total / static_cast<double>(n);
  ci.lower = quantile(replicate_values, kAlpha);
  ci.upper = quantile(replicate_values, 1.0 - kAlpha);
  return ci;
}

}  // namespace puffer::stats
