#ifndef PUFFER_NET_LINK_HH
#define PUFFER_NET_LINK_HH

#include "net/trace.hh"

namespace puffer::net {

/// Result of advancing the link by one fluid step.
struct LinkStepResult {
  double delivered_bytes = 0.0;  ///< bytes that exited the bottleneck
  double queue_delay_s = 0.0;    ///< queueing delay seen at the end of step
  double lost_bytes = 0.0;       ///< drop-tail losses during the step
  /// A total outage (zero capacity) is holding the queue: nothing drains and
  /// no finite queueing delay exists. queue_delay_s then reports the capped
  /// outage horizon (kQueueDelayCapS) instead of a division-floor artifact.
  bool blocked = false;
};

/// Fluid model of a single bottleneck link with a drop-tail queue, fed by one
/// flow (each Puffer session has its own TCP connection; the bottleneck is
/// the client's access link). Capacity follows a ThroughputTrace.
class LinkSimulator {
 public:
  /// Upper bound on the reported queueing delay. During a zero-capacity
  /// outage the true delay is unbounded (the queue cannot drain), so the
  /// model pins it at this horizon — far beyond any RTT the consumers
  /// (srtt smoothing, the TTP's 9.75 s+ bin, BBR's min filter) distinguish,
  /// without the ~250,000 s artifacts a 1 byte/s division floor produced.
  static constexpr double kQueueDelayCapS = 60.0;

  /// `queue_capacity_bytes`: drop-tail buffer size. A common access-link
  /// provisioning is ~1 BDP to several BDP; callers compute it from the path.
  LinkSimulator(const ThroughputTrace& trace, double queue_capacity_bytes);

  /// Offer `offered_bytes` into the queue and drain at trace capacity for
  /// `dt` seconds starting at `now_s`. The drain and the queue-delay
  /// denominator use one consistent capacity sample (mid-step), so a segment
  /// boundary inside the step cannot make the reported delay disagree with
  /// the drain that actually happened.
  LinkStepResult step(double now_s, double dt, double offered_bytes);

  [[nodiscard]] double queue_bytes() const { return queue_bytes_; }
  [[nodiscard]] double queue_capacity() const { return queue_capacity_bytes_; }
  [[nodiscard]] double capacity_at(double now_s) const {
    return trace_->capacity_at(now_s);
  }

 private:
  const ThroughputTrace* trace_;
  double queue_capacity_bytes_;
  double queue_bytes_ = 0.0;
};

}  // namespace puffer::net

#endif  // PUFFER_NET_LINK_HH
