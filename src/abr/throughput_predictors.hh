#ifndef PUFFER_ABR_THROUGHPUT_PREDICTORS_HH
#define PUFFER_ABR_THROUGHPUT_PREDICTORS_HH

#include <deque>

#include "abr/predictor.hh"

namespace puffer::abr {

/// The classical predictor used by MPC-HM (paper [43] and Figure 5): the
/// harmonic mean of the last five throughput samples, converted to a
/// transmission time via t = size / throughput (a point estimate).
class HarmonicMeanPredictor : public TxTimePredictor {
 public:
  /// Throughput samples (and, for RobustMPC, relative errors) kept.
  static constexpr size_t kWindow = 5;

  void begin_decision(const AbrObservation& obs) override;
  TxTimeDistribution predict(int step, int64_t size_bytes) final;
  /// One estimate for the whole decision; each query's one-outcome
  /// distribution is refilled in place, so a warm `out` allocates nothing.
  void predict_batch(std::span<const TxTimeQuery> queries,
                     std::vector<TxTimeDistribution>& out) final;
  void on_chunk_complete(const ChunkRecord& record) override;
  void reset_session() override;

  /// Current throughput estimate in bytes/second (exposed for tests).
  [[nodiscard]] double predicted_throughput() const;

 protected:
  /// The throughput chunk sizes are divided by: the harmonic mean here.
  [[nodiscard]] virtual double planning_throughput() const;

  std::deque<double> throughput_samples_;  ///< bytes per second
};

/// RobustMPC's conservative variant: discount the harmonic-mean estimate by
/// the maximum relative prediction error observed over the recent window,
/// C_robust = C_hm / (1 + max_err) (Yin et al. [43], section 5.2).
class RobustThroughputPredictor final : public HarmonicMeanPredictor {
 public:
  void on_chunk_complete(const ChunkRecord& record) override;
  void reset_session() override;

 private:
  [[nodiscard]] double planning_throughput() const override;

  std::deque<double> relative_errors_;
};

}  // namespace puffer::abr

#endif  // PUFFER_ABR_THROUGHPUT_PREDICTORS_HH
