#include "net/link.hh"

#include <algorithm>

#include "util/require.hh"

namespace puffer::net {

LinkSimulator::LinkSimulator(const ThroughputTrace& trace,
                             const double queue_capacity_bytes)
    : trace_(&trace), queue_capacity_bytes_(queue_capacity_bytes) {
  require(queue_capacity_bytes > 0.0, "LinkSimulator: queue capacity > 0");
}

LinkStepResult LinkSimulator::step(const double now_s, const double dt,
                                   const double offered_bytes) {
  require(dt > 0.0, "LinkSimulator::step: dt must be positive");
  require(offered_bytes >= 0.0, "LinkSimulator::step: offered must be >= 0");

  LinkStepResult result;

  // Arrivals enter the queue; overflow is dropped (drop-tail).
  queue_bytes_ += offered_bytes;
  if (queue_bytes_ > queue_capacity_bytes_) {
    result.lost_bytes = queue_bytes_ - queue_capacity_bytes_;
    queue_bytes_ = queue_capacity_bytes_;
  }

  // Drain at the capacity prevailing during this step (sampled mid-step so
  // that segment boundaries inside the step are approximated fairly).
  const double capacity = trace_->capacity_at(now_s + dt * 0.5);
  const double drainable = capacity * dt;
  result.delivered_bytes = std::min(queue_bytes_, drainable);
  queue_bytes_ -= result.delivered_bytes;

  // The delay the queue implies uses the same capacity sample as the drain.
  // Zero capacity means the queue is blocked: no finite delay exists, so the
  // report pins at the outage horizon instead of dividing by a floor.
  if (capacity > 0.0) {
    result.queue_delay_s = std::min(queue_bytes_ / capacity, kQueueDelayCapS);
  } else {
    result.blocked = queue_bytes_ > 0.0;
    result.queue_delay_s = result.blocked ? kQueueDelayCapS : 0.0;
  }
  return result;
}

}  // namespace puffer::net
