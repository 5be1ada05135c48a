#include "media/vbr_source.hh"

#include <algorithm>
#include <cmath>

#include "media/ssim.hh"
#include "util/require.hh"

namespace puffer::media {

namespace {

/// AR(1) persistence of log-complexity between scene cuts: content complexity
/// is strongly correlated chunk-to-chunk within a scene.
constexpr double kComplexityPersistence = 0.90;

/// Per-rung encoder noise: x264's rate control is not exact, so size and
/// quality jitter a little around the model even at fixed complexity.
constexpr double kSizeNoiseSigma = 0.10;
constexpr double kQualityNoiseSigmaDb = 0.40;

}  // namespace

VbrVideoSource::VbrVideoSource(const ChannelProfile& profile, const uint64_t seed)
    : profile_(profile), rng_(Rng{seed}.split("vbr-source")) {}

void VbrVideoSource::extend_to(const int64_t index) {
  require(index >= 0, "VbrVideoSource: chunk index must be non-negative");
  while (static_cast<int64_t>(chunks_.size()) <= index) {
    // Advance the scene-complexity process.
    double log_c;
    if (log_complexity_.empty()) {
      log_c = rng_.normal(profile_.mean_log_complexity, profile_.scene_cut_spread);
    } else if (rng_.bernoulli(profile_.scene_cut_rate)) {
      // Scene cut: complexity re-drawn around the channel mean.
      log_c = rng_.normal(profile_.mean_log_complexity, profile_.scene_cut_spread);
    } else {
      const double prev = log_complexity_.back();
      log_c = profile_.mean_log_complexity +
              kComplexityPersistence * (prev - profile_.mean_log_complexity) +
              rng_.normal(0.0, profile_.complexity_volatility);
    }
    log_complexity_.push_back(log_c);
    const double complexity = std::exp(log_c);
    const double complexity_term = complexity_rate_term(complexity);

    ChunkOptions options;
    options.chunk_index = static_cast<int64_t>(chunks_.size());
    for (int r = 0; r < kNumRungs; r++) {
      const Rung& rung = default_ladder()[static_cast<size_t>(r)];
      // Compressed size scales with complexity (more detail/motion -> more
      // bits at fixed CRF), with multiplicative encoder noise.
      const double size_noise = std::exp(rng_.normal(0.0, kSizeNoiseSigma));
      const double size =
          static_cast<double>(nominal_chunk_bytes(rung)) * complexity * size_noise;
      const double actual_bitrate_mbps =
          size * 8.0 / 1e6 / kChunkDurationS;

      ChunkVersion version;
      version.rung = r;
      version.size_bytes = std::max<int64_t>(static_cast<int64_t>(size), 2000);
      version.ssim_db =
          std::clamp(rate_quality_db_with_term(actual_bitrate_mbps,
                                               complexity_term) +
                         rng_.normal(0.0, kQualityNoiseSigmaDb),
                     3.0, 25.0);
      options.versions[static_cast<size_t>(r)] = version;
    }
    chunks_.push_back(options);
  }
}

const ChunkOptions& VbrVideoSource::chunk_options(const int64_t index) {
  extend_to(index);
  return chunks_[static_cast<size_t>(index)];
}

double VbrVideoSource::complexity(const int64_t index) {
  extend_to(index);
  return std::exp(log_complexity_[static_cast<size_t>(index)]);
}

}  // namespace puffer::media
