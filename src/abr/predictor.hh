#ifndef PUFFER_ABR_PREDICTOR_HH
#define PUFFER_ABR_PREDICTOR_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "abr/abr.hh"

namespace puffer::abr {

/// One possible transmission-time outcome with its probability.
struct TxTimeOutcome {
  double time_s = 0.0;
  double probability = 1.0;
};

/// A (small) discrete distribution over transmission times. Point-estimate
/// predictors return a single outcome with probability 1.
using TxTimeDistribution = std::vector<TxTimeOutcome>;

/// Transmission times of Fugu's TTP outcomes (paper section 4.5): the
/// midpoints of its 21 bins [0, 0.25), [0.25, 0.75), ..., [9.75, inf), with
/// 10.5 s standing in for the open last bin. Every outcome the TTP predicts
/// takes one of these times, so StochasticMpc precomputes its buffer-bin
/// transitions for exactly this grid. fugu::ttp_bin_midpoint reads it.
inline constexpr std::array<double, 21> kTtpBinMidpointsS = {
    0.125, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0,
    5.5,   6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5, 10.5};

/// One (horizon step, proposed chunk size) query of an ABR decision. MPC
/// issues every query of a decision up front (one per step x rung), which
/// is what lets batched predictors answer them in fused forward passes.
struct TxTimeQuery {
  int step = 0;
  int64_t size_bytes = 0;
};

/// The canonical query enumeration of one MPC decision over `lookahead`
/// with planning horizon `horizon`: step-major over
/// [0, min(horizon, lookahead.size())) x every rung, refilling `out`.
/// StochasticMpc::plan issues exactly this list, and staged batched
/// predictors (fugu::BatchTtpPredictor::stage) pre-enqueue exactly this
/// list — sharing the enumeration is what guarantees they can never skew.
void enumerate_tx_time_queries(std::span<const media::ChunkOptions> lookahead,
                               int horizon, std::vector<TxTimeQuery>& out);

/// Predicts how long a proposed chunk of a given size will take to transmit.
/// This is the module MPC consults (paper Figure 6); implementations include
/// the classical harmonic-mean throughput predictor (MPC-HM), its robust
/// variant (RobustMPC-HM), and Fugu's learned TTP.
class TxTimePredictor {
 public:
  virtual ~TxTimePredictor() = default;

  /// Called once per ABR decision with the current observation, before any
  /// predict() calls for that decision.
  virtual void begin_decision(const AbrObservation& obs) = 0;

  /// Distribution over the transmission time of sending `size_bytes` as the
  /// chunk `step` positions ahead (step 0 = the chunk being decided now).
  virtual TxTimeDistribution predict(int step, int64_t size_bytes) = 0;

  /// Batch hook: answer every query of one decision at once, one
  /// distribution per query in query order. The default loops over
  /// predict(). The harmonic-mean predictors override it to compute their
  /// estimate once per decision and refill `out`'s distributions in place;
  /// learned predictors override it to fuse all rows of the decision into
  /// one forward pass per step-network (see fugu::BatchTtpPredictor).
  virtual void predict_batch(std::span<const TxTimeQuery> queries,
                             std::vector<TxTimeDistribution>& out) {
    out.clear();
    out.reserve(queries.size());
    for (const TxTimeQuery& query : queries) {
      out.push_back(predict(query.step, query.size_bytes));
    }
  }

  /// Telemetry of a completed transfer (updates history).
  virtual void on_chunk_complete(const ChunkRecord& record) = 0;

  /// Session start: clear history.
  virtual void reset_session() = 0;
};

}  // namespace puffer::abr

#endif  // PUFFER_ABR_PREDICTOR_HH
