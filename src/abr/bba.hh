#ifndef PUFFER_ABR_BBA_HH
#define PUFFER_ABR_BBA_HH

#include "abr/abr.hh"

namespace puffer::abr {

/// Buffer-based adaptation (Huang et al., SIGCOMM 2014 [17]) as deployed on
/// Puffer: the classical reservoir/cushion rate map, with reservoir values
/// consistent with Puffer's 15-second maximum buffer (section 3.3), choosing
/// the highest-SSIM version whose instantaneous bitrate fits under the map
/// (Figure 5: "+SSIM s.t. bitrate < limit").
class Bba final : public AbrAlgorithm {
 public:

  [[nodiscard]] std::string_view name() const override { return "BBA"; }
  void reset_session() override {}
  int choose_rung(const AbrObservation& obs,
                  std::span<const media::ChunkOptions> lookahead) override;
  void on_chunk_complete(const ChunkRecord& record) override;

  /// The rate map f(buffer) in Mbit/s (exposed for tests).
  [[nodiscard]] double rate_limit_mbps(double buffer_s) const;
};

}  // namespace puffer::abr

#endif  // PUFFER_ABR_BBA_HH
