#ifndef PUFFER_MEDIA_LADDER_HH
#define PUFFER_MEDIA_LADDER_HH

#include <array>
#include <cstdint>
#include <string>

namespace puffer::media {

/// Number of encoded versions ("rungs") per chunk. Puffer encodes each video
/// chunk in ten H.264 versions (paper section 3.1).
inline constexpr int kNumRungs = 10;

/// Video chunks are 2.002 seconds long (NTSC 1/1001 factor, section 3.1).
inline constexpr double kChunkDurationS = 2.002;

/// The client buffer holds at most 15 seconds of video (section 3.3). Every
/// arm runs under this one player: the stream loop, the MPC planner and
/// Pensieve's training environment read this constant, and BBA's reservoirs
/// are checked against it.
inline constexpr double kMaxBufferS = 15.0;

/// One rung of the encoding ladder.
struct Rung {
  int index;                   ///< 0 = lowest quality, kNumRungs-1 = highest
  int height;                  ///< vertical resolution, e.g. 240 .. 1080
  int crf;                     ///< x264 constant rate factor
  double nominal_bitrate_mbps; ///< long-run average bitrate of this rung
  std::string name;            ///< e.g. "1080p60-crf20"
};

/// The Puffer-like ladder: 240p60/CRF26 (~200 kbps) ... 1080p60/CRF20
/// (~5500 kbps), section 3.1.
const std::array<Rung, kNumRungs>& default_ladder();

/// Average compressed chunk size in bytes for a rung at complexity 1.
int64_t nominal_chunk_bytes(const Rung& rung);

}  // namespace puffer::media

#endif  // PUFFER_MEDIA_LADDER_HH
