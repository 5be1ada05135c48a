#include "abr/bba.hh"

#include <algorithm>

#include "media/ladder.hh"
#include "util/require.hh"

namespace puffer::abr {

namespace {

constexpr double kReservoirS = 3.75;        ///< below this: lowest rung
constexpr double kUpperReservoirS = 13.125; ///< above this: highest rung

static_assert(kReservoirS > 0.0 && kUpperReservoirS > kReservoirS &&
                  media::kMaxBufferS >= kUpperReservoirS,
              "Bba: reservoir < upper reservoir <= max buffer required");

}  // namespace

double Bba::rate_limit_mbps(const double buffer_s) const {
  const double r_min = media::default_ladder().front().nominal_bitrate_mbps;
  const double r_max = media::default_ladder().back().nominal_bitrate_mbps;
  if (buffer_s <= kReservoirS) {
    return r_min;
  }
  if (buffer_s >= kUpperReservoirS) {
    return r_max;
  }
  const double fraction = (buffer_s - kReservoirS) /
                          (kUpperReservoirS - kReservoirS);
  return r_min + fraction * (r_max - r_min);
}

int Bba::choose_rung(const AbrObservation& obs,
                     const std::span<const media::ChunkOptions> lookahead) {
  require(!lookahead.empty(), "Bba: need the upcoming chunk menu");
  const media::ChunkOptions& menu = lookahead[0];
  const double limit_mbps = rate_limit_mbps(obs.buffer_s);

  int best = 0;  // lowest rung is the always-allowed fallback
  double best_ssim = menu.versions[0].ssim_db;
  for (const auto& version : menu.versions) {
    const double rate_mbps = static_cast<double>(version.size_bytes) * 8.0 /
                             1e6 / media::kChunkDurationS;
    if (rate_mbps <= limit_mbps && version.ssim_db > best_ssim) {
      best = version.rung;
      best_ssim = version.ssim_db;
    }
  }
  return best;
}

void Bba::on_chunk_complete(const ChunkRecord& /*record*/) {
  // BBA is memoryless: decisions depend only on the current buffer.
}

}  // namespace puffer::abr
