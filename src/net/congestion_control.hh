#ifndef PUFFER_NET_CONGESTION_CONTROL_HH
#define PUFFER_NET_CONGESTION_CONTROL_HH

#include <string_view>

namespace puffer::net {

/// Maximum segment size of every simulated connection (Ethernet MTU
/// payload): the unit of congestion-window floors and of tcp_info's packet
/// counts.
inline constexpr double kMssBytes = 1500.0;

/// One fluid-model feedback sample delivered to a congestion controller.
struct CcSample {
  double now_s = 0.0;
  double dt_s = 0.0;
  double acked_bytes = 0.0;         ///< bytes acknowledged during this step
  double rtt_sample_s = 0.0;        ///< RTT measured for those acks (0 if none)
  double min_rtt_s = 0.0;           ///< connection-lifetime minimum RTT
  double delivery_rate_bps = 0.0;   ///< instantaneous delivery rate estimate
  double in_flight_bytes = 0.0;
  bool loss = false;                ///< drop-tail loss occurred this step
  bool app_limited = false;         ///< sender had less data than window room
};

/// Congestion-control strategy for the fluid TCP sender. Implementations:
/// BbrModel (Puffer's primary experiment used BBR, section 3.2) and
/// CubicModel (the CUBIC arm of the study).
class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual void on_sample(const CcSample& sample) = 0;

  /// Congestion window in bytes.
  [[nodiscard]] virtual double cwnd_bytes() const = 0;

  /// Pacing-rate cap in bytes/second; 0 means "no pacing" (window-limited).
  [[nodiscard]] virtual double pacing_rate_bps() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace puffer::net

#endif  // PUFFER_NET_CONGESTION_CONTROL_HH
