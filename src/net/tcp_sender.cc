#include "net/tcp_sender.hh"

#include <algorithm>
#include <cmath>

#include "util/require.hh"

namespace puffer::net {

namespace {

constexpr double kMinStepS = 0.002;
constexpr double kMaxStepS = 0.025;

// Hard cap so that a total outage cannot hang the simulation: a chunk
// transfer is abandoned after 10 simulated minutes (far beyond any
// plausible player timeout, and beyond the TTP's last bin of 9.75 s+).
constexpr double kTransferDeadlineS = 600.0;

}  // namespace

TcpSender::TcpSender(const NetworkPath& path,
                     std::unique_ptr<CongestionControl> cc,
                     const double queue_capacity_bytes)
    : min_rtt_s_(path.min_rtt_s), cc_(std::move(cc)) {
  require(cc_ != nullptr, "TcpSender: congestion control required");
  link_.emplace(path.trace, queue_capacity_bytes);
  info_.min_rtt_s = min_rtt_s_;
  info_.srtt_s = min_rtt_s_;
  info_.cwnd_pkts = 10.0;
  info_.in_flight_pkts = 0.0;
  info_.delivery_rate_bps = 0.0;
}

TcpSender::TcpSender(const double min_rtt_s,
                     std::unique_ptr<CongestionControl> cc)
    : min_rtt_s_(min_rtt_s), cc_(std::move(cc)) {
  require(cc_ != nullptr, "TcpSender: congestion control required");
  require(min_rtt_s > 0.0, "TcpSender: min_rtt must be positive");
  info_.min_rtt_s = min_rtt_s_;
  info_.srtt_s = min_rtt_s_;
  info_.cwnd_pkts = 10.0;
  info_.in_flight_pkts = 0.0;
  info_.delivery_rate_bps = 0.0;
}

double TcpSender::default_queue_capacity(const NetworkPath& path) {
  // Access links commonly buffer on the order of one to a few BDP worth of
  // data at the path's typical rate; floor at 64 kB so slow links still have
  // a usable buffer.
  const double typical_bdp = path.trace.mean_rate() * path.min_rtt_s;
  return std::max(2.0 * typical_bdp, 64.0 * 1024.0);
}

double TcpSender::preferred_dt() const {
  return std::clamp(info_.srtt_s / 4.0, kMinStepS, kMaxStepS);
}

double TcpSender::offered_step(const double dt) {
  // How much may we push this step?
  const double cwnd = cc_->cwnd_bytes();
  const double window_room = std::max(0.0, cwnd - in_flight_bytes_);
  double can_send = window_room;
  const double pacing = cc_->pacing_rate_bps();
  if (pacing > 0.0) {
    can_send = std::min(can_send, pacing * dt);
  }
  const double offered = std::min(can_send, send_buffer_bytes_);
  app_limited_this_step_ = send_buffer_bytes_ < can_send;
  send_buffer_bytes_ -= offered;
  sent_total_ += offered;
  in_flight_bytes_ += offered;
  delivered_before_step_ = delivered_total_;
  return offered;
}

void TcpSender::absorb_step(const double dt, const LinkStepResult& link_result) {
  now_s_ += dt;

  // Losses: SACK-style instant recovery — retransmit by putting the bytes
  // back into the send queue and removing them from the flight ledger.
  if (link_result.lost_bytes > 0.0) {
    send_buffer_bytes_ += link_result.lost_bytes;
    sent_total_ -= link_result.lost_bytes;
    in_flight_bytes_ =
        std::max(0.0, in_flight_bytes_ - link_result.lost_bytes);
  }

  // Delivered bytes reach the client now; their acks return one RTT after
  // the send-to-delivery path, approximated as min_rtt later.
  double rtt_sample = 0.0;
  if (link_result.delivered_bytes > 0.0) {
    delivered_total_ += link_result.delivered_bytes;
    rtt_sample = min_rtt_s_ + link_result.queue_delay_s;
    pending_acks_.emplace_back(now_s_ + min_rtt_s_,
                               link_result.delivered_bytes);
  }

  // Process acks whose return time has passed.
  double acked = 0.0;
  while (!pending_acks_.empty() && pending_acks_.front().first <= now_s_) {
    acked += pending_acks_.front().second;
    pending_acks_.pop_front();
  }
  in_flight_bytes_ = std::max(0.0, in_flight_bytes_ - acked);

  // Delivery-rate estimate: delivered bytes over a ~1 sRTT window.
  delivery_window_.emplace_back(now_s_, link_result.delivered_bytes);
  delivery_window_bytes_ += link_result.delivered_bytes;
  const double window_len = std::max(info_.srtt_s, 4.0 * dt);
  while (!delivery_window_.empty() &&
         delivery_window_.front().first < now_s_ - window_len) {
    delivery_window_bytes_ -= delivery_window_.front().second;
    delivery_window_.pop_front();
  }
  // The exported tcpi_delivery_rate is sticky: the kernel reports the last
  // measured rate rather than decaying to zero during app-limited idling.
  const double delivery_rate = delivery_window_bytes_ / window_len;
  if (link_result.delivered_bytes > 0.0) {
    info_.delivery_rate_bps = delivery_rate;
  }

  // Smoothed RTT.
  if (rtt_sample > 0.0) {
    const double alpha = std::clamp(dt / std::max(info_.srtt_s, 1e-3), 0.02, 0.4);
    info_.srtt_s += alpha * (rtt_sample - info_.srtt_s);
    info_.min_rtt_s = std::min(info_.min_rtt_s, rtt_sample);
  }

  // Feed the congestion controller.
  CcSample sample;
  sample.now_s = now_s_;
  sample.dt_s = dt;
  sample.acked_bytes = acked;
  sample.rtt_sample_s = rtt_sample;
  sample.min_rtt_s = info_.min_rtt_s;
  sample.delivery_rate_bps = delivery_rate;
  sample.in_flight_bytes = in_flight_bytes_;
  sample.loss = link_result.lost_bytes > 0.0;
  sample.app_limited = app_limited_this_step_;
  cc_->on_sample(sample);

  // Export tcp_info.
  info_.cwnd_pkts = cc_->cwnd_bytes() / kMssBytes;
  info_.in_flight_pkts = in_flight_bytes_ / kMssBytes;

  // Transfer completion: interpolate within the final step for accuracy, or
  // abandon at the deadline (total outage).
  if (transfer_pending_) {
    if (delivered_total_ >= delivery_goal_bytes_) {
      const double step_delivered = delivered_total_ - delivered_before_step_;
      const double overshoot = delivered_total_ - delivery_goal_bytes_;
      const double fraction =
          step_delivered > 0.0 ? overshoot / step_delivered : 0.0;
      complete_transfer(now_s_ - fraction * dt + min_rtt_s_ / 2.0);
    } else if (now_s_ >= transfer_deadline_s_) {
      complete_transfer(now_s_ + min_rtt_s_ / 2.0);
    }
  }
}

void TcpSender::step(const double dt) {
  const double offered = offered_step(dt);
  const LinkStepResult link_result = link_->step(now_s_, dt, offered);
  absorb_step(dt, link_result);
}

void TcpSender::start_transfer(const double bytes) {
  require(bytes > 0.0, "TcpSender::start_transfer: bytes must be positive");
  require(!transfer_pending_,
          "TcpSender::start_transfer: transfer already in flight");
  last_transfer_ = TransferResult{};
  last_transfer_.start_s = now_s_;
  transfer_start_s_ = now_s_;
  // One byte of slack absorbs floating-point accumulation error across the
  // (possibly hundreds of thousands of) fluid steps of a long transfer.
  delivery_goal_bytes_ = delivered_total_ + bytes - 1.0;
  transfer_deadline_s_ = now_s_ + kTransferDeadlineS;
  send_buffer_bytes_ = bytes;
  transfer_pending_ = true;
  if (delivered_total_ >= delivery_goal_bytes_) {
    // Goal pre-satisfied (bytes within the fluid slack): the historical
    // step loop never entered and reported completion at now + min_rtt/2.
    complete_transfer(now_s_ + min_rtt_s_ / 2.0);
  }
}

void TcpSender::complete_transfer(const double completion_s) {
  last_transfer_.completion_s = completion_s;
  busy_time_s_ += completion_s - transfer_start_s_;
  transfer_pending_ = false;
  // Unoffered leftovers (the slack byte, retransmit residue) vanish with the
  // application transfer, exactly as the historical local send queue did.
  send_buffer_bytes_ = 0.0;
}

TransferResult TcpSender::take_completion() {
  require(!transfer_pending_, "TcpSender::take_completion: still in flight");
  return last_transfer_;
}

TransferResult TcpSender::transfer(const double bytes) {
  require(link_.has_value(),
          "TcpSender::transfer: sender is externally driven");
  start_transfer(bytes);
  while (transfer_pending_) {
    step(preferred_dt());
  }
  return take_completion();
}

void TcpSender::idle_until(const double t) {
  require(link_.has_value(),
          "TcpSender::idle_until: sender is externally driven");
  require(t >= now_s_, "TcpSender::idle_until: cannot go backwards");
  // While idle the queue drains and acks come back; step the model coarsely.
  while (now_s_ < t) {
    step(std::min(0.1, t - now_s_));
  }
}

double TcpSender::mean_delivery_rate() const {
  if (busy_time_s_ <= 0.0) {
    return 0.0;
  }
  return delivered_total_ / busy_time_s_;
}

}  // namespace puffer::net
