#ifndef PUFFER_MEDIA_SSIM_HH
#define PUFFER_MEDIA_SSIM_HH

namespace puffer::media {

/// Convert a raw SSIM index in [0, 1) to decibels: -10 * log10(1 - ssim).
/// The paper reports all quality numbers in SSIM dB.
double ssim_to_db(double ssim_index);

/// Inverse of ssim_to_db.
double db_to_ssim(double ssim_db);

/// Rate-quality model: expected SSIM dB of a chunk encoded at `bitrate_mbps`
/// for content with scene complexity `complexity` (1.0 = typical). Quality is
/// concave in log-bitrate and decreases with complexity — harder content needs
/// more bits for the same quality. Calibrated so the ladder spans ~6-18 dB and
/// a full-ladder mean around 16-17 dB, matching Figures 3b and 1.
double rate_quality_db(double bitrate_mbps, double complexity);

/// rate_quality_db's complexity term, pow(complexity, 1.45). It depends on
/// the content alone, so a source encoding one chunk at every rung computes
/// it once and passes it to rate_quality_db_with_term.
double complexity_rate_term(double complexity);

/// rate_quality_db(bitrate_mbps, complexity), given
/// complexity_rate_term(complexity); the same bits.
double rate_quality_db_with_term(double bitrate_mbps, double complexity_term);

}  // namespace puffer::media

#endif  // PUFFER_MEDIA_SSIM_HH
