#ifndef PUFFER_FUGU_TTP_HH
#define PUFFER_FUGU_TTP_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "abr/predictor.hh"
#include "net/tcp_info.hh"
#include "nn/mlp.hh"
#include "util/rng.hh"

namespace puffer::fugu {

/// Number of past chunks the TTP conditions on (t = 8, paper section 4.5).
inline constexpr int kTtpHistory = 8;

/// Number of discretized transmission-time bins: [0, 0.25), [0.25, 0.75),
/// ..., [9.75, inf) — 0.5 s bins except the first and last (section 4.5).
inline constexpr int kTtpBins =
    static_cast<int>(abr::kTtpBinMidpointsS.size());

/// Map a transmission time to its bin.
int ttp_bin_of(double tx_time_s);
/// Representative value (midpoint) of a bin, used when converting the
/// distribution into planning outcomes; the open last bin uses 10.5 s. The
/// midpoints live in abr::kTtpBinMidpointsS (abr/predictor.hh), where MPC
/// builds its next-bin rows from them.
double ttp_bin_midpoint(int bin);

/// Bins for the "Throughput Predictor" ablation (Figure 7): 21 log-spaced
/// throughput bins over 0.05..500 Mbit/s; transmission time is then derived
/// as size / throughput, ignoring the nonlinear size dependence the real TTP
/// captures.
int throughput_bin_of(double throughput_bps);
double throughput_bin_midpoint_bps(int bin);

/// What the network predicts — the real TTP predicts transmission time of a
/// specific proposed chunk; the ablation predicts throughput only.
enum class TtpTarget { kTransmissionTime, kThroughput };

/// Architecture/featurization knobs. The defaults are the paper's TTP; the
/// other settings produce the Figure 7 ablation variants.
struct TtpConfig {
  int history = kTtpHistory;
  bool use_tcp_info = true;
  TtpTarget target = TtpTarget::kTransmissionTime;
  std::vector<size_t> hidden_layers = {64, 64};  ///< {} = linear model
  int horizon = 5;  ///< one network per future step (section 4.2)

  [[nodiscard]] int input_dim() const;
};

/// Rolling history of past chunk transfers, maintained per connection.
struct TtpHistory {
  std::deque<double> sizes_mb;
  std::deque<double> tx_times_s;

  void record(double size_mb, double tx_time_s, int max_history);
  void clear();
};

/// Build the TTP input vector for a given config into a caller-owned buffer
/// (`out` is cleared and refilled, keeping its capacity, so the per-chunk
/// hot paths do not allocate). Featurization depends only on the config
/// (not on network weights), so training-data pipelines can featurize
/// without a model instance.
void ttp_featurize_into(const TtpConfig& config, const TtpHistory& history,
                        const net::TcpInfo& tcp, int64_t proposed_size_bytes,
                        std::vector<float>& out);

/// Convert one post-softmax bin row into a transmission-time distribution
/// (handling the throughput-ablation conversion t = size / throughput),
/// into `out`: cleared and refilled, keeping its capacity, so a planner's
/// per-query distributions are reused across plans without allocating.
void ttp_distribution_into(const TtpConfig& config,
                           std::span<const float> probs,
                           int64_t proposed_size_bytes,
                           abr::TxTimeDistribution& out);

/// Collapse a distribution, in place, to its max-likelihood outcome (the
/// first of equal ones) with probability 1 — the paper's "Point Estimate"
/// ablation (section 4.6).
void collapse_to_point_estimate(abr::TxTimeDistribution& dist);

/// Training label for an observed transfer under a given config.
int ttp_label_of(const TtpConfig& config, double tx_time_s, double size_mb);

/// The Transmission Time Predictor: `horizon` fully-connected networks, one
/// per future step, each mapping (past chunk sizes, past transmission times,
/// tcp_info, proposed size) to a probability distribution over transmission
/// time (section 4.2).
class TtpModel {
 public:
  TtpModel(TtpConfig config, uint64_t seed);

  [[nodiscard]] const TtpConfig& config() const { return config_; }

  /// Full probability distribution over bins for horizon step `step`. No
  /// allocation once `scratch` has warmed to shape. The returned span
  /// aliases the scratch and is valid until its next use.
  std::span<const float> predict_bins(int step,
                                      std::span<const float> features,
                                      nn::ForwardScratch& scratch) const;

  std::vector<nn::Mlp>& networks() { return networks_; }
  [[nodiscard]] const std::vector<nn::Mlp>& networks() const {
    return networks_;
  }

 private:
  TtpConfig config_;
  std::vector<nn::Mlp> networks_;  ///< one per horizon step
};

}  // namespace puffer::fugu

#endif  // PUFFER_FUGU_TTP_HH
