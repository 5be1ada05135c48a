#ifndef PUFFER_NET_BBR_HH
#define PUFFER_NET_BBR_HH

#include <deque>
#include <utility>

#include "net/congestion_control.hh"

namespace puffer::net {

/// Fluid-model BBR (v1): windowed-max bottleneck-bandwidth filter, windowed
/// min-RTT, STARTUP / DRAIN / PROBE_BW state machine with the standard gain
/// cycle. Captures the BBR behaviours that matter for ABR-over-TCP: fast
/// startup ramp, operating point near 1 BDP of queue, periodic 1.25x probing,
/// and robustness to app-limited periods (video chunks leave the connection
/// idle between sends).
class BbrModel final : public CongestionControl {
 public:
  void on_sample(const CcSample& sample) override;
  [[nodiscard]] double cwnd_bytes() const override;
  [[nodiscard]] double pacing_rate_bps() const override;
  [[nodiscard]] std::string_view name() const override { return "bbr"; }

  enum class Mode { kStartup, kDrain, kProbeBw };
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] double btl_bw_bps() const { return btl_bw_bps_; }
  [[nodiscard]] double min_rtt_s() const { return min_rtt_s_; }

 private:
  void update_btl_bw(const CcSample& sample);
  void update_min_rtt(const CcSample& sample);
  void advance_state_machine(const CcSample& sample);

  Mode mode_ = Mode::kStartup;

  // Windowed max filter for bottleneck bandwidth (10 s window), kept as a
  // monotonic deque of (timestamp, rate) with strictly decreasing rate from
  // the front: a new sample evicts every older one it matches or beats, so
  // the front is the window's max and each step costs amortized O(1).
  std::deque<std::pair<double, double>> bw_samples_;
  double btl_bw_bps_ = 0.0;

  // Windowed min filter for RTT (BBR's 10 s min-RTT window), kept as a
  // monotonic deque of (timestamp, rtt) with strictly increasing rtt from
  // the front. Seeded by the first sample — a fixed initial value would act
  // as a permanent ceiling on paths whose propagation RTT exceeds it (the
  // ~600 ms GEO satellite family lost ~6x of its BDP estimate that way).
  std::deque<std::pair<double, double>> rtt_samples_;
  double min_rtt_s_ = 0.100;  // pre-first-sample fallback only

  // Full-pipe detection (STARTUP exit).
  double full_pipe_baseline_bps_ = 0.0;
  int rounds_without_growth_ = 0;
  double next_round_at_s_ = 0.0;

  // PROBE_BW gain cycling.
  int cycle_index_ = 0;
  double cycle_phase_start_s_ = 0.0;

  double pacing_gain_ = 2.885;
  double cwnd_gain_ = 2.885;
};

}  // namespace puffer::net

#endif  // PUFFER_NET_BBR_HH
