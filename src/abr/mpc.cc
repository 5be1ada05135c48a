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
  merged_rows_.resize(static_cast<size_t>(config_.horizon) * detail::kGridRows);
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
    TxTimePredictor& predictor, const detail::SweepKernels& sweep) {
  require(!lookahead.empty(), "StochasticMpc::plan: empty lookahead");
  lookahead_ = lookahead;
  effective_horizon_ =
      std::min<int>(config_.horizon, static_cast<int>(lookahead.size()));

  // One distribution per (step, rung). All queries of the decision are
  // issued in one predict_batch call so learned predictors can answer them
  // with fused forward passes.
  enumerate_tx_time_queries(lookahead, config_.horizon, queries_);
  predictor.predict_batch(queries_, distributions_);
  require(distributions_.size() == queries_.size(),
          "StochasticMpc: predictor answered the wrong number of queries");
  for (const TxTimeDistribution& dist : distributions_) {
    require(!dist.empty(), "StochasticMpc: predictor returned empty dist");
  }
  steps_.assign(static_cast<size_t>(effective_horizon_), StepSweep{});
  for (int step = 0; step < effective_horizon_; step++) {
    if (is_dense(step)) {
      steps_[static_cast<size_t>(step)].dense_rows = prune_dense(step, sweep);
      continue;
    }
    for (int rung = 0; rung < media::kNumRungs; rung++) {
      prune_distribution(
          distributions_[static_cast<size_t>(step) * media::kNumRungs +
                         static_cast<size_t>(rung)],
          config_.prune_probability);
    }
  }
}

bool StochasticMpc::is_dense(const int step) const {
  for (int rung = 0; rung < media::kNumRungs; rung++) {
    const TxTimeDistribution& dist = distribution(step, rung);
    if (dist.size() != kTtpBinMidpointsS.size()) {
      return false;
    }
    for (size_t row = 0; row < kTtpBinMidpointsS.size(); row++) {
      if (dist[row].time_s != kTtpBinMidpointsS[row]) {
        return false;
      }
    }
  }
  return true;
}

int StochasticMpc::prune_dense(const int step,
                               const detail::SweepKernels& sweep) {
  constexpr int R = media::kNumRungs;
  std::array<const TxTimeOutcome*, R> lists{};
  for (int rung = 0; rung < R; rung++) {
    lists[static_cast<size_t>(rung)] = distribution(step, rung).data();
  }
  detail::MergedRow* const rows =
      merged_rows_.data() + static_cast<size_t>(step) * detail::kGridRows;
  uint32_t kept = 0;
  int num_rows =
      sweep.prune_grid(lists.data(), config_.prune_probability, rows, kept);
  // A rung that keeps nothing keeps its first most likely outcome with
  // probability 1, as prune_distribution does. Its row joins the merged
  // rows in row order if no other rung keeps it.
  for (int rung = 0; rung < R && kept != (uint32_t{1} << R) - 1; rung++) {
    if ((kept >> rung & 1U) != 0) {
      continue;
    }
    const TxTimeOutcome* const list = lists[static_cast<size_t>(rung)];
    int best = 0;
    for (int row = 1; row < detail::kGridRows; row++) {
      if (list[best].probability < list[row].probability) {
        best = row;
      }
    }
    int i = 0;
    while (i < num_rows && rows[i].grid_row < best) {
      i++;
    }
    if (i == num_rows || rows[i].grid_row != best) {
      std::copy_backward(rows + i, rows + num_rows, rows + num_rows + 1);
      rows[i] = detail::MergedRow{};
      rows[i].grid_row = best;
      rows[i].time_s = kTtpBinMidpointsS[static_cast<size_t>(best)];
      num_rows++;
    }
    rows[i].probability.lane[rung] = 1.0;
  }
  const size_t bins = static_cast<size_t>(num_bins_ + 1);
  for (int i = 0; i < num_rows; i++) {
    rows[i].next_bin =
        next_bin_.data() + static_cast<size_t>(rows[i].grid_row) * bins;
  }
  return num_rows;
}

std::vector<TxTimeDistribution> StochasticMpc::last_distributions() const {
  std::vector<TxTimeDistribution> pruned = distributions_;
  for (int step = 0; step < effective_horizon_; step++) {
    if (steps_[static_cast<size_t>(step)].dense_rows == 0) {
      continue;  // pruned in place already
    }
    for (int rung = 0; rung < media::kNumRungs; rung++) {
      prune_distribution(
          pruned[static_cast<size_t>(step) * media::kNumRungs +
                 static_cast<size_t>(rung)],
          config_.prune_probability);
    }
  }
  return pruned;
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
  reachable_.clear();
  // The root's landing bins, read again by plan_root; S_1 is their set.
  root_bins_.clear();
  if (steps_[0].dense_rows != 0) {
    for (const detail::MergedRow& row : merged_rows(0)) {
      root_bins_.push_back(landing_bin(obs.buffer_s, row.time_s));
    }
  } else {
    for (int action = 0; action < R; action++) {
      for (const TxTimeOutcome& outcome : distribution(0, action)) {
        root_bins_.push_back(landing_bin(obs.buffer_s, outcome.time_s));
      }
    }
  }
  if (effective_horizon_ == 1) {
    return;
  }
  for (const int b : root_bins_) {
    reached_[static_cast<size_t>(b)] = 1;
  }
  steps_[1].bins_end = close_reachable_set();

  // S_{step+1}: the next bins the step's fold reads, from S_step. V[horizon]
  // = 0 everywhere, so the last step has no set to collect.
  for (int step = 1; step + 1 < effective_horizon_; step++) {
    StepSweep& sweep = steps_[static_cast<size_t>(step)];
    const auto bins_begin = reachable_.begin() + sweep.bins_begin;
    const auto bins_end = reachable_.begin() + sweep.bins_end;
    if (sweep.dense_rows != 0) {
      for (const detail::MergedRow& row : merged_rows(step)) {
        for (auto b = bins_begin; b != bins_end; ++b) {
          reached_[row.next_bin[*b]] = 1;
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
  const std::span<const detail::MergedRow> rows = merged_rows(0);
  int best_action = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  root_values_.assign(media::kNumRungs, 0.0);
  size_t outcome_index = 0;  // into root_bins_ when step 0 is not dense
  for (int action = 0; action < media::kNumRungs; action++) {
    const double ssim_db =
        lookahead_[0].versions[static_cast<size_t>(action)].ssim_db;
    const auto term = [&](const double time_s, const double probability,
                          const int bin) {
      const double qoe =
          chunk_qoe(ssim_db, obs.prev_ssim_db, time_s, obs.buffer_s);
      return probability *
             (qoe + next_values[static_cast<size_t>(bin)].lane[action]);
    };
    double expected = 0.0;
    if (!rows.empty()) {
      // A row this rung does not keep adds 0 * (finite), which is nothing.
      for (size_t i = 0; i < rows.size(); i++) {
        expected += term(rows[i].time_s, rows[i].probability.lane[action],
                         root_bins_[i]);
      }
    } else {
      for (const TxTimeOutcome& outcome : distribution(0, action)) {
        expected += term(outcome.time_s, outcome.probability,
                         root_bins_[outcome_index++]);
      }
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
  const detail::SweepKernels& sweep = active_sweep();
  prepare_plan(lookahead, predictor, sweep);
  collect_reachable(obs);

  constexpr int R = media::kNumRungs;

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
    if (step_sweep.dense_rows != 0) {
      sweep.sweep_rows(value_cur_.data(), value_next_.data(),
                       merged_rows(step).data(), step_sweep.dense_rows,
                       switch_penalty_.data(), at);
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
