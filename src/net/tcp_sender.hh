#ifndef PUFFER_NET_TCP_SENDER_HH
#define PUFFER_NET_TCP_SENDER_HH

#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "net/congestion_control.hh"
#include "net/link.hh"
#include "net/tcp_info.hh"
#include "net/trace_models.hh"

namespace puffer::net {

/// Result of one application-level transfer (e.g. one video chunk).
struct TransferResult {
  double start_s = 0.0;
  double completion_s = 0.0;  ///< last byte arrives at the client
  [[nodiscard]] double transmission_time() const {
    return completion_s - start_s;
  }
};

/// Fluid-model TCP sender over a single bottleneck path.
///
/// Advances an internal clock; the application (the Puffer video server)
/// calls `transfer()` to send one chunk and `idle_until()` while waiting for
/// client buffer room. Exposes a `TcpInfo` mirroring the kernel statistics
/// that Fugu's TTP consumes.
///
/// Model notes (documented substitutions for a real kernel stack):
///  * bytes are fluid; the in-flight ledger and ack delay-line quantize at
///    step granularity (max(min_rtt/4, 2 ms), capped at 25 ms);
///  * lost bytes are retransmitted immediately (SACK-style recovery) and
///    re-enter the send queue;
///  * delivery_rate is a windowed estimate over ~1 sRTT, marked app-limited
///    exactly as Linux does for BBR's benefit.
///
/// Two driving modes share one step implementation:
///  * private-path mode (the historical API): the sender owns a
///    LinkSimulator and `transfer()` runs the step loop to completion;
///  * externally-driven mode (shared bottlenecks): the sender has no link of
///    its own — a world (net::SharedLinkSimulator's driver) calls
///    `start_transfer()`, then per lockstep world step `offered_step()` /
///    `absorb_step()`, and collects `take_completion()` when
///    `transfer_in_flight()` turns false. The private-path `transfer()` is
///    exactly start_transfer + that loop over the private link, so the two
///    modes cannot diverge.
class TcpSender {
 public:
  TcpSender(const NetworkPath& path, std::unique_ptr<CongestionControl> cc,
            double queue_capacity_bytes);

  /// Externally-driven mode: no private link; the caller owns the bottleneck
  /// and feeds link step results back through absorb_step().
  TcpSender(double min_rtt_s, std::unique_ptr<CongestionControl> cc);

  /// Convenience: queue sized at max(4 BDP at 25 Mbit/s-ish, 64 kB).
  static double default_queue_capacity(const NetworkPath& path);

  /// Send `bytes` to the client; returns when the last byte arrives.
  /// Private-path mode only.
  TransferResult transfer(double bytes);

  /// Let the connection sit idle (app-limited, nothing to send) until `t`.
  /// Private-path mode only.
  void idle_until(double t);

  // --- Externally-driven protocol -----------------------------------------

  /// Begin an application transfer; the connection offers bytes on
  /// subsequent steps until the delivery goal is met (or the 600 s abandon
  /// deadline passes). A pre-satisfied goal (bytes <= the fluid slack)
  /// completes immediately.
  void start_transfer(double bytes);
  [[nodiscard]] bool transfer_in_flight() const { return transfer_pending_; }
  /// The finished transfer's result; valid once transfer_in_flight() is
  /// false after a start_transfer().
  TransferResult take_completion();

  /// The step size this connection would choose for itself:
  /// clamp(srtt/4, 2 ms, 25 ms). A lockstep world takes the min over flows.
  [[nodiscard]] double preferred_dt() const;

  /// First half of one fluid step: how many bytes the window/pacer releases
  /// into the bottleneck over `dt`. Does not advance the clock.
  double offered_step(double dt);

  /// Second half: absorb the bottleneck's step result (losses, deliveries,
  /// acks, rate/RTT estimation, congestion-controller feedback) and advance
  /// the clock by `dt`. Must follow the matching offered_step(dt).
  void absorb_step(double dt, const LinkStepResult& link_result);

  // ------------------------------------------------------------------------

  [[nodiscard]] double now() const { return now_s_; }
  [[nodiscard]] const TcpInfo& info() const { return info_; }
  [[nodiscard]] double min_rtt_s() const { return min_rtt_s_; }

  /// Lifetime-average delivery rate (bytes/s) — used to classify "slow"
  /// paths (mean tcpi_delivery_rate < 6 Mbit/s, Figure 8).
  [[nodiscard]] double mean_delivery_rate() const;

 private:
  void step(double dt);
  void complete_transfer(double completion_s);

  double min_rtt_s_;
  std::optional<LinkSimulator> link_;  ///< empty in externally-driven mode
  std::unique_ptr<CongestionControl> cc_;

  double now_s_ = 0.0;
  double sent_total_ = 0.0;
  double delivered_total_ = 0.0;
  double in_flight_bytes_ = 0.0;

  // Application send queue: bytes of the current transfer not yet offered
  // to the bottleneck (replenished by retransmits). Always 0 while idle.
  double send_buffer_bytes_ = 0.0;

  // Pending-transfer state (between start_transfer and completion).
  bool transfer_pending_ = false;
  double transfer_start_s_ = 0.0;
  double delivery_goal_bytes_ = 0.0;
  double transfer_deadline_s_ = 0.0;
  TransferResult last_transfer_;

  // Staged by offered_step for the matching absorb_step.
  double delivered_before_step_ = 0.0;
  bool app_limited_this_step_ = false;

  // Delay line of (ack arrival time, bytes) for deliveries awaiting acks.
  std::deque<std::pair<double, double>> pending_acks_;

  // Delivery-rate estimation window.
  std::deque<std::pair<double, double>> delivery_window_;
  double delivery_window_bytes_ = 0.0;

  // Time-weighted mean delivery rate over the connection's busy lifetime.
  double busy_time_s_ = 0.0;

  TcpInfo info_;
};

}  // namespace puffer::net

#endif  // PUFFER_NET_TCP_SENDER_HH
