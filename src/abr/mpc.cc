#include "abr/mpc.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "abr/mpc_sweep.hh"
#include "media/ladder.hh"
#include "util/require.hh"
#include "util/simd.hh"

namespace puffer::abr {

namespace {

/// Prune negligible-probability outcomes and renormalize; keeps planning
/// cheap without changing the distribution materially.
void prune_distribution(TxTimeDistribution& dist, const double min_probability) {
  double kept_mass = 0.0;
  size_t out = 0;
  for (const auto& outcome : dist) {
    if (outcome.probability >= min_probability) {
      dist[out++] = outcome;
      kept_mass += outcome.probability;
    }
  }
  if (out == 0) {
    // Keep the single most likely outcome.
    const auto best =
        std::max_element(dist.begin(), dist.end(),
                         [](const TxTimeOutcome& a, const TxTimeOutcome& b) {
                           return a.probability < b.probability;
                         });
    dist = {TxTimeOutcome{best->time_s, 1.0}};
    return;
  }
  dist.resize(out);
  for (auto& outcome : dist) {
    outcome.probability /= kept_mass;
  }
}

/// The AVX2 sweep when it was compiled in and the CPU runs it, else nullptr.
/// The cpuid check runs here, at the baseline ISA, once per process.
const detail::SweepKernels* avx2_sweep() {
#if defined(__x86_64__) || defined(__i386__)
  static const detail::SweepKernels* const kernels =
      __builtin_cpu_supports("avx2") ? detail::avx2_sweep_kernels() : nullptr;
  return kernels;
#else
  return nullptr;
#endif
}

const detail::SweepKernels& active_sweep() {
  const detail::SweepKernels* const avx2 =
      util::force_portable() ? nullptr : avx2_sweep();
  return avx2 != nullptr ? *avx2 : detail::kSweepKernels;
}

}  // namespace

std::string mpc_active_path() {
  return &active_sweep() == &detail::kSweepKernels ? "portable" : "avx2";
}

StochasticMpc::StochasticMpc(const MpcConfig config) : config_(config) {
  require(config_.horizon >= 1, "StochasticMpc: horizon must be >= 1");
  require(config_.buffer_bin_s > 0.0, "StochasticMpc: bin size must be > 0");
  const double num_bins = std::ceil(media::kMaxBufferS / config_.buffer_bin_s);
  require(num_bins <= std::numeric_limits<uint16_t>::max(),
          "StochasticMpc: bin size too small for the next-bin table");
  num_bins_ = static_cast<int>(num_bins);
  const size_t bins = static_cast<size_t>(num_bins_ + 1);
  next_bin_.resize((kTtpBinMidpointsS.size() + 1) * bins);
  next_bin_runs_.resize(kTtpBinMidpointsS.size() + 1);
  for (size_t row = 0; row < kTtpBinMidpointsS.size(); row++) {
    fill_next_bin_row(kTtpBinMidpointsS[row], row);
  }
}

int StochasticMpc::buffer_to_bin(const double buffer_s) const {
  const double clamped = std::clamp(buffer_s, 0.0, media::kMaxBufferS);
  return round_nonnegative(clamped / config_.buffer_bin_s);
}

void StochasticMpc::fill_next_bin_row(const double tx_time_s,
                                      const size_t row) {
  uint16_t* const next_bin =
      next_bin_.data() + row * static_cast<size_t>(num_bins_ + 1);
  for (int b = 0; b <= num_bins_; b++) {
    const double buffer_s = b * config_.buffer_bin_s;
    const double next_buffer =
        std::min(std::max(buffer_s - tx_time_s, 0.0) + media::kChunkDurationS,
                 media::kMaxBufferS);
    next_bin[b] = static_cast<uint16_t>(buffer_to_bin(next_buffer));
  }

  // Each run is checked against the row it summarizes, never assumed from
  // the arithmetic: the clamped top, a rounding flip on an off-grid time or
  // a bin width that does not divide the buffer falls to the tail.
  detail::NextBinRuns& runs = next_bin_runs_[row];
  int b = 0;
  while (b <= num_bins_ && tx_time_s > b * config_.buffer_bin_s &&
         next_bin[b] == next_bin[0]) {
    b++;
  }
  runs.stall_end = b;
  runs.shift = b <= num_bins_ ? next_bin[b] - b : 0;
  while (b <= num_bins_ && !(tx_time_s > b * config_.buffer_bin_s) &&
         next_bin[b] - b == runs.shift) {
    b++;
  }
  runs.shift_end = b;
}

size_t StochasticMpc::next_bin_row(const double tx_time_s) {
  const size_t row = static_cast<size_t>(
      std::find(kTtpBinMidpointsS.begin(), kTtpBinMidpointsS.end(), tx_time_s) -
      kTtpBinMidpointsS.begin());
  if (row == kTtpBinMidpointsS.size()) {
    fill_next_bin_row(tx_time_s, row);
  }
  return row;
}

double StochasticMpc::chunk_qoe(const double ssim_db, const double prev_ssim_db,
                                const double tx_time_s,
                                const double buffer_s) const {
  double qoe = ssim_db;
  if (prev_ssim_db >= 0.0) {
    qoe -= config_.lambda * std::abs(ssim_db - prev_ssim_db);
  }
  const double stall = std::max(tx_time_s - buffer_s, 0.0);
  qoe -= config_.mu * stall;
  return qoe;
}

void StochasticMpc::prepare_plan(
    const std::span<const media::ChunkOptions> lookahead,
    TxTimePredictor& predictor) {
  require(!lookahead.empty(), "StochasticMpc::plan: empty lookahead");
  lookahead_ = lookahead;
  effective_horizon_ =
      std::min<int>(config_.horizon, static_cast<int>(lookahead.size()));

  // Precompute (and prune) one distribution per (step, rung). All queries
  // of the decision are issued in one predict_batch call so learned
  // predictors can answer them with fused forward passes.
  enumerate_tx_time_queries(lookahead, config_.horizon, queries_);
  predictor.predict_batch(queries_, distributions_);
  require(distributions_.size() == queries_.size(),
          "StochasticMpc: predictor answered the wrong number of queries");
  for (TxTimeDistribution& dist : distributions_) {
    require(!dist.empty(), "StochasticMpc: predictor returned empty dist");
    prune_distribution(dist, config_.prune_probability);
  }
}

int StochasticMpc::plan_root(const AbrObservation& obs,
                             const std::span<const double> next_values) {
  // Root step: continuous buffer, previous quality from the observation.
  int best_action = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  root_values_.assign(media::kNumRungs, 0.0);
  for (int action = 0; action < media::kNumRungs; action++) {
    const auto& version = lookahead_[0].versions[static_cast<size_t>(action)];
    const TxTimeDistribution& dist = distributions_[static_cast<size_t>(action)];
    double expected = 0.0;
    for (const auto& outcome : dist) {
      const double qoe = chunk_qoe(version.ssim_db, obs.prev_ssim_db,
                                   outcome.time_s, obs.buffer_s);
      const double next_buffer =
          std::min(std::max(obs.buffer_s - outcome.time_s, 0.0) +
                       media::kChunkDurationS,
                   media::kMaxBufferS);
      const double continuation =
          next_values[static_cast<size_t>(action) *
                          static_cast<size_t>(num_bins_ + 1) +
                      static_cast<size_t>(buffer_to_bin(next_buffer))];
      expected += outcome.probability * (qoe + continuation);
    }
    root_values_[static_cast<size_t>(action)] = expected;
    if (expected > best_value) {
      best_value = expected;
      best_action = action;
    }
  }
  last_plan_value_ = best_value;
  return best_action;
}

int StochasticMpc::plan(const AbrObservation& obs,
                        const std::span<const media::ChunkOptions> lookahead,
                        TxTimePredictor& predictor) {
  prepare_plan(lookahead, predictor);

  constexpr int R = media::kNumRungs;
  const int bins = num_bins_ + 1;
  const size_t plane = static_cast<size_t>(bins) * R;

  // Backward sweep over the (step x buffer-bin x previous-rung) lattice.
  // value_next_ holds V[step + 1]; V[effective_horizon_] = 0.
  value_next_.assign(plane, 0.0);
  value_cur_.resize(plane);
  expect_base_.resize(static_cast<size_t>(R) * bins);
  switch_penalty_.resize(static_cast<size_t>(R) * R);

  const detail::SweepKernels& sweep = active_sweep();
  const detail::SweepGrid grid{bins, config_.buffer_bin_s, config_.mu};

  for (int step = effective_horizon_ - 1; step >= 1; step--) {
    // 1. Fold the outcome expectation once per (action, bin):
    //      expect_base_[a][b] = sum_o p_o * (V[step+1][a][nb] - mu * stall)
    //    The bin transition nb of each (outcome time, bin) comes from the
    //    next-bin table, so the fold never calls buffer_to_bin; and (unlike
    //    the recursion) the expectation no longer re-runs per previous rung.
    //    Every bin sums its outcomes in order with the per-bin expression.
    for (int action = 0; action < R; action++) {
      double* const base =
          expect_base_.data() + static_cast<size_t>(action) * bins;
      const double* const value_row =
          value_next_.data() + static_cast<size_t>(action) * bins;
      std::fill(base, base + bins, 0.0);
      const TxTimeDistribution& dist =
          distributions_[static_cast<size_t>(step) * R +
                         static_cast<size_t>(action)];
      for (const TxTimeOutcome& outcome : dist) {
        const size_t row = next_bin_row(outcome.time_s);
        sweep.fold(base, value_row,
                   next_bin_.data() + row * static_cast<size_t>(bins),
                   next_bin_runs_[row], outcome.time_s, outcome.probability,
                   grid);
      }
    }

    // 2. Quality + switch-penalty term per (action, previous rung) — does
    //    not depend on the buffer, so it is hoisted out of the bin loop.
    //    Matches chunk_qoe: a negative previous SSIM means "no previous
    //    quality", so the variation term is skipped.
    for (int action = 0; action < R; action++) {
      const double ssim =
          lookahead_[static_cast<size_t>(step)].versions[static_cast<size_t>(
              action)].ssim_db;
      for (int prev = 0; prev < R; prev++) {
        const double prev_ssim =
            lookahead_[static_cast<size_t>(step - 1)]
                .versions[static_cast<size_t>(prev)].ssim_db;
        const double penalty =
            prev_ssim >= 0.0 ? config_.lambda * std::abs(ssim - prev_ssim)
                             : 0.0;
        switch_penalty_[static_cast<size_t>(action) * R +
                        static_cast<size_t>(prev)] = ssim - penalty;
      }
    }

    // 3. Maximize over actions for every (previous rung, bin) state.
    sweep.maximize(value_cur_.data(), expect_base_.data(),
                   switch_penalty_.data(), bins);
    std::swap(value_cur_, value_next_);
  }

  // value_next_ now holds V[1] (or zeros when the horizon is 1).
  return plan_root(obs, value_next_);
}

}  // namespace puffer::abr
