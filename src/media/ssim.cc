#include "media/ssim.hh"

#include <algorithm>
#include <cmath>

#include "util/require.hh"

namespace puffer::media {

double ssim_to_db(const double ssim_index) {
  require(ssim_index >= 0.0 && ssim_index < 1.0, "ssim_to_db: index in [0,1)");
  return -10.0 * std::log10(1.0 - ssim_index);
}

double db_to_ssim(const double ssim_db) {
  return 1.0 - std::pow(10.0, -ssim_db / 10.0);
}

double rate_quality_db(const double bitrate_mbps, const double complexity) {
  return rate_quality_db_with_term(bitrate_mbps,
                                   complexity_rate_term(complexity));
}

double complexity_rate_term(const double complexity) {
  require(complexity > 0.0, "rate_quality_db: complexity must be positive");
  return std::pow(complexity, 1.45);
}

double rate_quality_db_with_term(const double bitrate_mbps,
                                 const double complexity_term) {
  require(bitrate_mbps > 0.0, "rate_quality_db: bitrate must be positive");
  // SSIM dB grows roughly logarithmically with bitrate; complexity shifts
  // the curve down with exponent > 1: a CRF encoder spends extra bits on
  // complex scenes (size scales ~linearly with complexity) yet SSIM still
  // ends up somewhat lower there — the imperfect compensation behind the
  // quality spread of Figure 3b.
  const double effective_rate = bitrate_mbps / complexity_term;
  const double quality = 12.9 + 2.41 * std::log(effective_rate);
  return std::clamp(quality, 3.0, 25.0);
}

}  // namespace puffer::media
