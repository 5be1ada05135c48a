#include "fugu/ttp.hh"

#include <algorithm>
#include <cmath>

#include "nn/loss.hh"
#include "util/require.hh"

namespace puffer::fugu {

namespace {

// Feature normalization scales: keep inputs roughly O(1).
constexpr double kSizeScaleMb = 1.0;
constexpr double kTimeScaleS = 1.0;
constexpr double kCwndScale = 100.0;        // packets
constexpr double kRttScaleS = 0.1;          // 100 ms
constexpr double kRateScaleBps = 1.25e6;    // 10 Mbit/s

constexpr double kThroughputBinLoBps = 0.05e6 / 8.0;   // 0.05 Mbit/s
constexpr double kThroughputBinHiBps = 500.0e6 / 8.0;  // 500 Mbit/s

}  // namespace

int ttp_bin_of(const double tx_time_s) {
  if (tx_time_s < 0.25) {
    return 0;
  }
  if (tx_time_s >= 9.75) {
    return kTtpBins - 1;
  }
  return 1 + static_cast<int>((tx_time_s - 0.25) / 0.5);
}

double ttp_bin_midpoint(const int bin) {
  require(bin >= 0 && bin < kTtpBins, "ttp_bin_midpoint: bad bin");
  return abr::kTtpBinMidpointsS[static_cast<size_t>(bin)];
}

int throughput_bin_of(const double throughput_bps) {
  const double clamped =
      std::clamp(throughput_bps, kThroughputBinLoBps, kThroughputBinHiBps);
  const double fraction = std::log(clamped / kThroughputBinLoBps) /
                          std::log(kThroughputBinHiBps / kThroughputBinLoBps);
  return std::min(kTtpBins - 1, static_cast<int>(fraction * kTtpBins));
}

double throughput_bin_midpoint_bps(const int bin) {
  require(bin >= 0 && bin < kTtpBins, "throughput_bin_midpoint: bad bin");
  const double step = std::log(kThroughputBinHiBps / kThroughputBinLoBps) /
                      kTtpBins;
  return kThroughputBinLoBps * std::exp((bin + 0.5) * step);
}

int TtpConfig::input_dim() const {
  int dim = 2 * history;
  if (use_tcp_info) {
    dim += 5;
  }
  if (target == TtpTarget::kTransmissionTime) {
    dim += 1;  // proposed chunk size
  }
  return dim;
}

void TtpHistory::record(const double size_mb, const double tx_time_s,
                        const int max_history) {
  sizes_mb.push_back(size_mb);
  tx_times_s.push_back(tx_time_s);
  while (sizes_mb.size() > static_cast<size_t>(max_history)) {
    sizes_mb.pop_front();
  }
  while (tx_times_s.size() > static_cast<size_t>(max_history)) {
    tx_times_s.pop_front();
  }
}

void TtpHistory::clear() {
  sizes_mb.clear();
  tx_times_s.clear();
}

TtpModel::TtpModel(TtpConfig config, const uint64_t seed)
    : config_(std::move(config)) {
  require(config_.history >= 1, "TtpModel: history must be >= 1");
  require(config_.horizon >= 1, "TtpModel: horizon must be >= 1");
  Rng rng{seed};
  std::vector<size_t> sizes;
  sizes.push_back(static_cast<size_t>(config_.input_dim()));
  for (const size_t h : config_.hidden_layers) {
    sizes.push_back(h);
  }
  sizes.push_back(kTtpBins);
  for (int k = 0; k < config_.horizon; k++) {
    networks_.emplace_back(sizes, rng.engine()());
    // Small-init the output layer: the untrained predictor then emits a
    // near-uniform distribution (cross-entropy ~ ln 21) instead of random
    // confident garbage, which also speeds early training markedly.
    networks_.back().update([](auto& weights, auto& /*biases*/) {
      weights.back().scale_inplace(0.05f);
    });
  }
}

void ttp_featurize_into(const TtpConfig& config, const TtpHistory& history,
                        const net::TcpInfo& tcp,
                        const int64_t proposed_size_bytes,
                        std::vector<float>& features) {
  features.clear();
  features.reserve(static_cast<size_t>(config.input_dim()));

  // Past chunk sizes (oldest first, left-padded with zeros).
  const int t = config.history;
  for (int i = 0; i < t; i++) {
    const int from_end = t - i;
    if (static_cast<size_t>(from_end) <= history.sizes_mb.size()) {
      features.push_back(static_cast<float>(
          history.sizes_mb[history.sizes_mb.size() -
                           static_cast<size_t>(from_end)] /
          kSizeScaleMb));
    } else {
      features.push_back(0.0f);
    }
  }
  // Past transmission times.
  for (int i = 0; i < t; i++) {
    const int from_end = t - i;
    if (static_cast<size_t>(from_end) <= history.tx_times_s.size()) {
      features.push_back(static_cast<float>(
          std::min(history.tx_times_s[history.tx_times_s.size() -
                                      static_cast<size_t>(from_end)] /
                       kTimeScaleS,
                   20.0)));
    } else {
      features.push_back(0.0f);
    }
  }
  if (config.use_tcp_info) {
    features.push_back(
        static_cast<float>(std::min(tcp.cwnd_pkts / kCwndScale, 20.0)));
    features.push_back(
        static_cast<float>(std::min(tcp.in_flight_pkts / kCwndScale, 20.0)));
    features.push_back(
        static_cast<float>(std::min(tcp.min_rtt_s / kRttScaleS, 20.0)));
    features.push_back(
        static_cast<float>(std::min(tcp.srtt_s / kRttScaleS, 20.0)));
    features.push_back(static_cast<float>(
        std::min(tcp.delivery_rate_bps / kRateScaleBps, 50.0)));
  }
  if (config.target == TtpTarget::kTransmissionTime) {
    features.push_back(
        static_cast<float>(static_cast<double>(proposed_size_bytes) / 1e6));
  }
  require(features.size() == static_cast<size_t>(config.input_dim()),
          "ttp_featurize_into: dimension mismatch");
}

void ttp_distribution_into(const TtpConfig& config,
                           const std::span<const float> probs,
                           const int64_t proposed_size_bytes,
                           abr::TxTimeDistribution& out) {
  require(probs.size() == static_cast<size_t>(kTtpBins),
          "ttp_distribution_into: wrong bin count");
  out.resize(kTtpBins);
  for (size_t bin = 0; bin < out.size(); bin++) {
    out[bin] = {abr::kTtpBinMidpointsS[bin], static_cast<double>(probs[bin])};
  }
  if (config.target == TtpTarget::kThroughput) {
    // Throughput ablation: convert a throughput outcome to a transmission
    // time via t = size / throughput (linear in size, which is exactly the
    // modeling deficiency the paper calls out).
    for (size_t bin = 0; bin < out.size(); bin++) {
      out[bin].time_s = std::clamp(
          static_cast<double>(proposed_size_bytes) /
              throughput_bin_midpoint_bps(static_cast<int>(bin)),
          1e-3, 60.0);
    }
  }
}

void collapse_to_point_estimate(abr::TxTimeDistribution& dist) {
  require(!dist.empty(), "collapse_to_point_estimate: empty distribution");
  const auto best = std::max_element(
      dist.begin(), dist.end(),
      [](const abr::TxTimeOutcome& a, const abr::TxTimeOutcome& b) {
        return a.probability < b.probability;
      });
  dist.front() = {best->time_s, 1.0};
  dist.resize(1);
}

int ttp_label_of(const TtpConfig& config, const double tx_time_s,
                 const double size_mb) {
  if (config.target == TtpTarget::kTransmissionTime) {
    return ttp_bin_of(tx_time_s);
  }
  const double throughput_bps = size_mb * 1e6 / std::max(tx_time_s, 1e-3);
  return throughput_bin_of(throughput_bps);
}

std::span<const float> TtpModel::predict_bins(
    const int step, const std::span<const float> features,
    nn::ForwardScratch& scratch) const {
  const int clamped_step = std::clamp(step, 0, config_.horizon - 1);
  const std::span<float> logits =
      networks_[static_cast<size_t>(clamped_step)].forward_one(features,
                                                               scratch);
  nn::softmax_inplace(logits);
  return logits;
}

}  // namespace puffer::fugu
