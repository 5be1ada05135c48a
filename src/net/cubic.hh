#ifndef PUFFER_NET_CUBIC_HH
#define PUFFER_NET_CUBIC_HH

#include <limits>

#include "net/congestion_control.hh"

namespace puffer::net {

/// Fluid-model CUBIC: slow start to first loss, multiplicative decrease by
/// 0.7, cubic window growth W(t) = C*(t-K)^3 + W_max between losses. Used for
/// the study's CUBIC arm and for tests contrasting loss-based vs model-based
/// congestion control under drop-tail queues.
class CubicModel final : public CongestionControl {
 public:
  void on_sample(const CcSample& sample) override;
  [[nodiscard]] double cwnd_bytes() const override { return cwnd_bytes_; }
  [[nodiscard]] double pacing_rate_bps() const override { return 0.0; }
  [[nodiscard]] std::string_view name() const override { return "cubic"; }

  [[nodiscard]] bool in_slow_start() const { return in_slow_start_; }

 private:
  double cwnd_bytes_ = 10.0 * kMssBytes;
  double ssthresh_bytes_ = std::numeric_limits<double>::infinity();
  bool in_slow_start_ = true;

  double w_max_bytes_ = 0.0;
  double epoch_start_s_ = -1.0;
  double k_s_ = 0.0;  // time to return to w_max
  double last_loss_reaction_s_ = -1.0;
  double srtt_estimate_s_ = 0.100;
};

}  // namespace puffer::net

#endif  // PUFFER_NET_CUBIC_HH
