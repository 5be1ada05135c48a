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

/// The kTtpBinMidpointsS row whose time is exactly `tx_time_s`, or -1. The
/// grid's times are 0.125 s, then k/2 s for k = 1..19, then 10.5 s, so the
/// candidate row is 2t rounded and clamped to the grid (NaN goes to the last
/// row, whose check then fails). The static_assert below pins that every
/// grid time finds its own row.
constexpr int grid_row(const double tx_time_s) {
  constexpr int kLastRow = static_cast<int>(kTtpBinMidpointsS.size()) - 1;
  const double twice = 2.0 * tx_time_s;
  int row = kLastRow;
  if (twice < 0.5) {
    row = 0;
  } else if (twice < kLastRow + 0.5) {
    row = static_cast<int>(twice + 0.5);
  }
  return kTtpBinMidpointsS[static_cast<size_t>(row)] == tx_time_s ? row : -1;
}

static_assert(
    [] {
      for (size_t row = 0; row < kTtpBinMidpointsS.size(); row++) {
        if (grid_row(kTtpBinMidpointsS[row]) != static_cast<int>(row)) {
          return false;
        }
      }
      return true;
    }(),
    "grid_row must find every kTtpBinMidpointsS time in its own row");

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
  // The merged-row fold weights a row a rung lacks by 0, which adds nothing
  // only while every value and stall cost is finite.
  require(std::isfinite(config_.lambda), "StochasticMpc: lambda must be finite");
  require(std::isfinite(config_.mu) && config_.mu >= 0.0,
          "StochasticMpc: mu must be finite and >= 0");
  require(config_.prune_probability >= 0.0 && config_.prune_probability < 1.0,
          "StochasticMpc: prune_probability must be in [0, 1)");
  const double num_bins = std::ceil(media::kMaxBufferS / config_.buffer_bin_s);
  require(num_bins <= std::numeric_limits<uint16_t>::max(),
          "StochasticMpc: bin size too small for the next-bin table");
  num_bins_ = static_cast<int>(num_bins);
  const size_t bins = static_cast<size_t>(num_bins_ + 1);
  next_bin_.resize(kTtpBinMidpointsS.size() * bins);
  for (size_t row = 0; row < kTtpBinMidpointsS.size(); row++) {
    for (int b = 0; b <= num_bins_; b++) {
      next_bin_[row * bins + static_cast<size_t>(b)] = static_cast<uint16_t>(
          landing_bin(b * config_.buffer_bin_s, kTtpBinMidpointsS[row]));
    }
  }
  reached_.assign(bins, 0);
  value_cur_.resize(bins);
  value_next_.resize(bins);
}

int StochasticMpc::buffer_to_bin(const double buffer_s) const {
  const double clamped = std::clamp(buffer_s, 0.0, media::kMaxBufferS);
  return round_nonnegative(clamped / config_.buffer_bin_s);
}

int StochasticMpc::landing_bin(const double buffer_s,
                               const double tx_time_s) const {
  const double next_buffer =
      std::min(std::max(buffer_s - tx_time_s, 0.0) + media::kChunkDurationS,
               media::kMaxBufferS);
  return buffer_to_bin(next_buffer);
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

uint32_t StochasticMpc::merged_row_mask(const int step) const {
  constexpr int R = media::kNumRungs;
  uint32_t mask = 0;
  for (int action = 0; action < R; action++) {
    int last_row = -1;
    for (const TxTimeOutcome& outcome : distribution(step, action)) {
      const int row = grid_row(outcome.time_s);
      if (row <= last_row) {  // off the grid (-1), repeated or descending
        return 0;
      }
      mask |= uint32_t{1} << row;
      last_row = row;
    }
  }
  return mask;
}

int StochasticMpc::merge_rows(const int step, const uint32_t row_mask) {
  constexpr int R = media::kNumRungs;
  const size_t bins = static_cast<size_t>(num_bins_ + 1);
  // slot[row]: the row's place among the mask's rows, ascending.
  std::array<int, kTtpBinMidpointsS.size()> slot{};
  int num_rows = 0;
  for (size_t row = 0; row < kTtpBinMidpointsS.size(); row++) {
    if ((row_mask >> row & 1U) != 0) {
      slot[row] = num_rows;
      merged_rows_[static_cast<size_t>(num_rows++)] = {
          detail::RungLanes{}, kTtpBinMidpointsS[row],
          next_bin_.data() + row * bins};
    }
  }
  for (int action = 0; action < R; action++) {
    for (const TxTimeOutcome& outcome : distribution(step, action)) {
      const auto row = static_cast<size_t>(grid_row(outcome.time_s));
      merged_rows_[static_cast<size_t>(slot[row])].probability.lane[action] =
          outcome.probability;
    }
  }
  return num_rows;
}

int StochasticMpc::close_reachable_set() {
  for (int b = 0; b <= num_bins_; b++) {
    if (reached_[static_cast<size_t>(b)] != 0) {
      reachable_.push_back(b);
      reached_[static_cast<size_t>(b)] = 0;
    }
  }
  return static_cast<int>(reachable_.size());
}

void StochasticMpc::collect_reachable(const AbrObservation& obs) {
  constexpr int R = media::kNumRungs;
  const size_t bins = static_cast<size_t>(num_bins_ + 1);
  steps_.assign(static_cast<size_t>(effective_horizon_), StepSweep{});
  reachable_.clear();
  if (effective_horizon_ == 1) {
    return;
  }
  // S_1: the bins the root's outcomes land in, by plan_root's expression.
  for (int action = 0; action < R; action++) {
    for (const TxTimeOutcome& outcome : distribution(0, action)) {
      reached_[static_cast<size_t>(landing_bin(obs.buffer_s,
                                               outcome.time_s))] = 1;
    }
  }
  steps_[1].bins_end = close_reachable_set();

  for (int step = 1; step < effective_horizon_; step++) {
    StepSweep& sweep = steps_[static_cast<size_t>(step)];
    sweep.row_mask = merged_row_mask(step);
    if (step + 1 == effective_horizon_) {
      break;  // V[horizon] = 0 everywhere: no set to collect.
    }
    // S_{step+1}: the next bins the step's fold reads, from S_step.
    const auto bins_begin = reachable_.begin() + sweep.bins_begin;
    const auto bins_end = reachable_.begin() + sweep.bins_end;
    if (sweep.row_mask != 0) {
      for (size_t row = 0; row < kTtpBinMidpointsS.size(); row++) {
        if ((sweep.row_mask >> row & 1U) == 0) {
          continue;
        }
        const uint16_t* const next_bin = next_bin_.data() + row * bins;
        for (auto b = bins_begin; b != bins_end; ++b) {
          reached_[next_bin[*b]] = 1;
        }
      }
    } else {
      for (int action = 0; action < R; action++) {
        for (const TxTimeOutcome& outcome : distribution(step, action)) {
          for (auto b = bins_begin; b != bins_end; ++b) {
            reached_[static_cast<size_t>(landing_bin(
                *b * config_.buffer_bin_s, outcome.time_s))] = 1;
          }
        }
      }
    }
    StepSweep& next = steps_[static_cast<size_t>(step) + 1];
    next.bins_begin = sweep.bins_end;
    next.bins_end = close_reachable_set();
  }
}

void StochasticMpc::fold_per_rung(const int step, const detail::SweepBins& at) {
  constexpr int R = media::kNumRungs;
  expect_.resize(std::max(expect_.size(), static_cast<size_t>(at.count)));
  for (int action = 0; action < R; action++) {
    const TxTimeDistribution& dist = distribution(step, action);
    for (int i = 0; i < at.count; i++) {
      const double buffer_s = at.bins[i] * at.bin_s;
      double sum = 0.0;
      for (const TxTimeOutcome& outcome : dist) {
        const double t = outcome.time_s;
        const double stall = t > buffer_s ? t - buffer_s : 0.0;
        const double value =
            value_next_[static_cast<size_t>(landing_bin(buffer_s, t))]
                .lane[action];
        sum += outcome.probability * (value - at.mu * stall);
      }
      expect_[static_cast<size_t>(i)].lane[action] = sum;
    }
  }
}

int StochasticMpc::plan_root(
    const AbrObservation& obs,
    const std::span<const detail::RungLanes> next_values) {
  // Root step: continuous buffer, previous quality from the observation.
  int best_action = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  root_values_.assign(media::kNumRungs, 0.0);
  for (int action = 0; action < media::kNumRungs; action++) {
    const auto& version = lookahead_[0].versions[static_cast<size_t>(action)];
    const TxTimeDistribution& dist = distribution(0, action);
    double expected = 0.0;
    for (const auto& outcome : dist) {
      const double qoe = chunk_qoe(version.ssim_db, obs.prev_ssim_db,
                                   outcome.time_s, obs.buffer_s);
      const double continuation =
          next_values[static_cast<size_t>(
                          landing_bin(obs.buffer_s, outcome.time_s))]
              .lane[action];
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
  collect_reachable(obs);

  constexpr int R = media::kNumRungs;
  const detail::SweepKernels& sweep = active_sweep();

  // Backward sweep over the reachable bins. value_next_ holds V[step + 1];
  // V[effective_horizon_] = 0.
  std::fill(value_next_.begin(), value_next_.end(), detail::RungLanes{});
  for (int step = effective_horizon_ - 1; step >= 1; step--) {
    const StepSweep& step_sweep = steps_[static_cast<size_t>(step)];
    const detail::SweepBins at{reachable_.data() + step_sweep.bins_begin,
                               step_sweep.bins_end - step_sweep.bins_begin,
                               config_.buffer_bin_s, config_.mu};

    // 1. Quality + switch-penalty term per (action, previous rung) — does
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
        switch_penalty_[static_cast<size_t>(action)].lane[prev] =
            ssim - penalty;
      }
    }

    // 2. Per bin of S_step, fold the outcome expectation once per action,
    //      E[b][a] = sum_o p_o * (V[step+1][nb][a] - mu * stall),
    //    (unlike the recursion, not again per previous rung) and maximize
    //    over actions for every previous rung.
    if (step_sweep.row_mask != 0) {
      const int num_rows = merge_rows(step, step_sweep.row_mask);
      sweep.sweep_rows(value_cur_.data(), value_next_.data(),
                       merged_rows_.data(), num_rows, switch_penalty_.data(),
                       at);
    } else {
      fold_per_rung(step, at);
      sweep.maximize(value_cur_.data(), expect_.data(),
                     switch_penalty_.data(), at);
    }
    std::swap(value_cur_, value_next_);
  }

  // value_next_ now holds V[1] at S_1 (or zeros when the horizon is 1).
  return plan_root(obs, value_next_);
}

}  // namespace puffer::abr
