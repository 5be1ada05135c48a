#include "net/bbr.hh"

#include <algorithm>
#include <array>

namespace puffer::net {

namespace {

constexpr double kBwWindowS = 10.0;
constexpr double kMinRttWindowS = 10.0;
constexpr double kStartupGain = 2.885;  // 2/ln(2)
constexpr std::array<double, 8> kProbeBwGains = {1.25, 0.75, 1.0, 1.0,
                                                 1.0,  1.0,  1.0, 1.0};

}  // namespace

void BbrModel::update_btl_bw(const CcSample& sample) {
  // App-limited samples can only raise the estimate, never refresh a lower
  // one (BBR ignores app-limited samples unless they beat the current max).
  const bool usable =
      !sample.app_limited || sample.delivery_rate_bps > btl_bw_bps_;
  if (usable && sample.delivery_rate_bps > 0.0) {
    while (!bw_samples_.empty() &&
           bw_samples_.back().second <= sample.delivery_rate_bps) {
      bw_samples_.pop_back();
    }
    bw_samples_.emplace_back(sample.now_s, sample.delivery_rate_bps);
  }
  while (!bw_samples_.empty() &&
         bw_samples_.front().first < sample.now_s - kBwWindowS) {
    bw_samples_.pop_front();
  }
  btl_bw_bps_ = bw_samples_.empty() ? 0.0 : bw_samples_.front().second;
}

void BbrModel::advance_state_machine(const CcSample& sample) {
  const double bdp = btl_bw_bps_ * min_rtt_s_;
  switch (mode_) {
    case Mode::kStartup: {
      // Check bandwidth growth once per round (~RTT).
      if (sample.now_s >= next_round_at_s_) {
        next_round_at_s_ = sample.now_s + std::max(min_rtt_s_, 0.010);
        if (btl_bw_bps_ < full_pipe_baseline_bps_ * 1.25) {
          rounds_without_growth_++;
        } else {
          rounds_without_growth_ = 0;
          full_pipe_baseline_bps_ = btl_bw_bps_;
        }
        if (rounds_without_growth_ >= 3 && btl_bw_bps_ > 0.0) {
          mode_ = Mode::kDrain;
          pacing_gain_ = 1.0 / kStartupGain;
          cwnd_gain_ = kStartupGain;
        }
      }
      break;
    }
    case Mode::kDrain: {
      if (sample.in_flight_bytes <= bdp || bdp <= 0.0) {
        mode_ = Mode::kProbeBw;
        cycle_index_ = 2;  // start in a cruise phase
        cycle_phase_start_s_ = sample.now_s;
        pacing_gain_ = kProbeBwGains[static_cast<size_t>(cycle_index_)];
        cwnd_gain_ = 2.0;
      }
      break;
    }
    case Mode::kProbeBw: {
      const double phase_len = std::max(min_rtt_s_, 0.010);
      if (sample.now_s - cycle_phase_start_s_ >= phase_len) {
        cycle_index_ = (cycle_index_ + 1) % static_cast<int>(kProbeBwGains.size());
        cycle_phase_start_s_ = sample.now_s;
        pacing_gain_ = kProbeBwGains[static_cast<size_t>(cycle_index_)];
      }
      break;
    }
  }
}

void BbrModel::update_min_rtt(const CcSample& sample) {
  // Candidate for this step: the measured RTT if acks arrived, tightened by
  // the connection's lifetime floor (always available once connected).
  double candidate = 0.0;
  if (sample.rtt_sample_s > 0.0) {
    candidate = sample.rtt_sample_s;
  }
  if (sample.min_rtt_s > 0.0) {
    candidate =
        candidate > 0.0 ? std::min(candidate, sample.min_rtt_s) : sample.min_rtt_s;
  }
  if (candidate > 0.0) {
    while (!rtt_samples_.empty() && rtt_samples_.back().second >= candidate) {
      rtt_samples_.pop_back();
    }
    rtt_samples_.emplace_back(sample.now_s, candidate);
  }
  while (!rtt_samples_.empty() &&
         rtt_samples_.front().first < sample.now_s - kMinRttWindowS) {
    rtt_samples_.pop_front();
  }
  if (!rtt_samples_.empty()) {
    min_rtt_s_ = rtt_samples_.front().second;
  }
  // An empty filter (no sample yet, or all expired while no acks flowed)
  // keeps the previous estimate — never a hard-coded ceiling.
}

void BbrModel::on_sample(const CcSample& sample) {
  update_min_rtt(sample);
  update_btl_bw(sample);
  advance_state_machine(sample);
}

double BbrModel::cwnd_bytes() const {
  const double bdp = btl_bw_bps_ * min_rtt_s_;
  const double cwnd = cwnd_gain_ * bdp;
  return std::max(cwnd, 10.0 * kMssBytes);
}

double BbrModel::pacing_rate_bps() const {
  if (btl_bw_bps_ <= 0.0) {
    // No bandwidth estimate yet (connection start): pace at a conservative
    // initial-window-per-assumed-RTT rate, growing via STARTUP.
    return pacing_gain_ * 10.0 * kMssBytes / 0.050;
  }
  return pacing_gain_ * btl_bw_bps_;
}

}  // namespace puffer::net
