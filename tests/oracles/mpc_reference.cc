#include "oracles/mpc_reference.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "media/ladder.hh"
#include "util/require.hh"

namespace puffer::oracle {

namespace {

constexpr int R = media::kNumRungs;

/// Paper section 4.4: QoE = Q(K) - lambda*|Q(K) - Q(prev)| - mu*stall. A
/// negative previous SSIM means "no previous quality", so the variation
/// term is dropped; the stall is the part of the transmission time the
/// buffer does not cover.
double chunk_qoe(const abr::MpcConfig& config, const double ssim_db,
                 const double prev_ssim_db, const double tx_time_s,
                 const double buffer_s) {
  double qoe = ssim_db;
  if (prev_ssim_db >= 0.0) {
    qoe -= config.lambda * std::abs(ssim_db - prev_ssim_db);
  }
  qoe -= config.mu * std::max(tx_time_s - buffer_s, 0.0);
  return qoe;
}

/// One plan's value recursion, memoized per (step, buffer bin, prev rung).
class Recursion {
 public:
  Recursion(const abr::MpcConfig& config,
            const std::span<const media::ChunkOptions> lookahead,
            const std::span<const abr::TxTimeDistribution> distributions)
      : config_(config),
        lookahead_(lookahead),
        distributions_(distributions),
        horizon_(std::min<int>(config.horizon,
                               static_cast<int>(lookahead.size()))),
        bins_(static_cast<size_t>(
                  std::ceil(media::kMaxBufferS / config.buffer_bin_s)) +
              1),
        memo_(static_cast<size_t>(horizon_) * bins_ * R) {
    require(distributions_.size() == static_cast<size_t>(horizon_) * R,
            "plan_reference: mpc has not just planned this lookahead");
  }

  /// Expected QoE of sending `action` at `step` from `buffer_s` after a
  /// chunk of quality `prev_ssim_db`, plus the best continuation.
  double expected_value(const int step, const int action,
                        const double prev_ssim_db, const double buffer_s) {
    const double ssim_db =
        lookahead_[static_cast<size_t>(step)].version(action).ssim_db;
    double expected = 0.0;
    for (const abr::TxTimeOutcome& outcome :
         distributions_[static_cast<size_t>(step) * R +
                        static_cast<size_t>(action)]) {
      const double next_buffer =
          std::min(std::max(buffer_s - outcome.time_s, 0.0) +
                       media::kChunkDurationS,
                   media::kMaxBufferS);
      expected += outcome.probability *
                  (chunk_qoe(config_, ssim_db, prev_ssim_db, outcome.time_s,
                             buffer_s) +
                   value_of(step + 1, bin_of(next_buffer), action));
    }
    return expected;
  }

 private:
  [[nodiscard]] int bin_of(const double buffer_s) const {
    return static_cast<int>(std::lround(
        std::clamp(buffer_s, 0.0, media::kMaxBufferS) / config_.buffer_bin_s));
  }

  /// Best expected QoE from `step` on, entering with `buffer_bin` after a
  /// chunk on rung `prev_rung`.
  double value_of(const int step, const int buffer_bin, const int prev_rung) {
    if (step >= horizon_) {
      return 0.0;
    }
    std::optional<double>& memo =
        memo_[(static_cast<size_t>(step) * bins_ +
               static_cast<size_t>(buffer_bin)) *
                  R +
              static_cast<size_t>(prev_rung)];
    if (!memo) {
      const double prev_ssim_db =
          lookahead_[static_cast<size_t>(step - 1)].version(prev_rung).ssim_db;
      const double buffer_s = buffer_bin * config_.buffer_bin_s;
      double best = -std::numeric_limits<double>::infinity();
      for (int action = 0; action < R; action++) {
        best = std::max(best,
                        expected_value(step, action, prev_ssim_db, buffer_s));
      }
      memo = best;
    }
    return *memo;
  }

  const abr::MpcConfig& config_;
  std::span<const media::ChunkOptions> lookahead_;
  std::span<const abr::TxTimeDistribution> distributions_;
  int horizon_;
  size_t bins_;
  std::vector<std::optional<double>> memo_;
};

}  // namespace

ReferencePlan plan_reference(
    const abr::StochasticMpc& mpc, const abr::AbrObservation& obs,
    const std::span<const media::ChunkOptions> lookahead) {
  Recursion recursion{mpc.config(), lookahead, mpc.last_distributions()};
  ReferencePlan plan;
  plan.value = -std::numeric_limits<double>::infinity();
  for (int action = 0; action < R; action++) {
    const double expected =
        recursion.expected_value(0, action, obs.prev_ssim_db, obs.buffer_s);
    plan.root_values.push_back(expected);
    if (expected > plan.value) {
      plan.value = expected;
      plan.rung = action;
    }
  }
  return plan;
}

}  // namespace puffer::oracle
