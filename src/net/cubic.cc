#include "net/cubic.hh"

#include <algorithm>
#include <cmath>

namespace puffer::net {

namespace {

constexpr double kBeta = 0.7;  // multiplicative decrease
constexpr double kC = 0.4;     // cubic scaling constant (MSS/s^3)

}  // namespace

void CubicModel::on_sample(const CcSample& sample) {
  if (sample.rtt_sample_s > 0.0) {
    srtt_estimate_s_ +=
        0.125 * (sample.rtt_sample_s - srtt_estimate_s_);
  }

  // React to at most one loss event per RTT (fast-recovery granularity).
  if (sample.loss &&
      (last_loss_reaction_s_ < 0.0 ||
       sample.now_s - last_loss_reaction_s_ > srtt_estimate_s_)) {
    last_loss_reaction_s_ = sample.now_s;
    w_max_bytes_ = cwnd_bytes_;
    cwnd_bytes_ = std::max(cwnd_bytes_ * kBeta, 2.0 * kMssBytes);
    ssthresh_bytes_ = cwnd_bytes_;
    in_slow_start_ = false;
    epoch_start_s_ = sample.now_s;
    const double w_max_mss = w_max_bytes_ / kMssBytes;
    k_s_ = std::cbrt(w_max_mss * (1.0 - kBeta) / kC);
    return;
  }

  if (sample.acked_bytes <= 0.0) {
    return;
  }

  if (in_slow_start_) {
    cwnd_bytes_ += sample.acked_bytes;  // double per RTT
    if (cwnd_bytes_ >= ssthresh_bytes_) {
      in_slow_start_ = false;
      epoch_start_s_ = sample.now_s;
      w_max_bytes_ = cwnd_bytes_;
      k_s_ = 0.0;
    }
    return;
  }

  // Congestion avoidance: track the cubic curve.
  if (epoch_start_s_ < 0.0) {
    epoch_start_s_ = sample.now_s;
    w_max_bytes_ = cwnd_bytes_;
    k_s_ = 0.0;
  }
  const double t = sample.now_s - epoch_start_s_;
  const double w_max_mss = w_max_bytes_ / kMssBytes;
  const double target_mss = kC * std::pow(t - k_s_, 3.0) + w_max_mss;
  const double target_bytes =
      std::max(target_mss * kMssBytes, 2.0 * kMssBytes);
  // Move cwnd toward the cubic target (at most ~50% growth per RTT to avoid
  // fluid-model overshoot on long steps).
  const double max_growth =
      cwnd_bytes_ * 0.5 * (sample.dt_s / std::max(srtt_estimate_s_, 1e-3));
  cwnd_bytes_ = std::min(target_bytes, cwnd_bytes_ + std::max(max_growth,
                                                              sample.acked_bytes * 0.05));
}

}  // namespace puffer::net
