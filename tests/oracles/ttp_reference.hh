#ifndef PUFFER_TESTS_ORACLES_TTP_REFERENCE_HH
#define PUFFER_TESTS_ORACLES_TTP_REFERENCE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "abr/predictor.hh"
#include "fugu/ttp.hh"

namespace puffer::oracle {

/// Distribution over transmission times for one proposed chunk, from one
/// single-row forward pass: featurize, predict_bins, convert the bins
/// (and throughput bins for the ablation) into outcomes.
abr::TxTimeDistribution predict_tx_time(const fugu::TtpModel& model,
                                        int step,
                                        const fugu::TtpHistory& history,
                                        const net::TcpInfo& tcp,
                                        int64_t proposed_size_bytes);

/// The scalar TTP predictor: one single-row forward pass per (step, rung)
/// query, built only on TtpModel's public calls. It is the reference that
/// fugu::BatchTtpPredictor, which Fugu deploys, must match bit for bit.
///
/// Maintains the rolling per-connection history of chunk sizes and
/// transmission times and snapshots tcp_info at each decision.
/// `point_estimate` collapses the distribution to its max-likelihood bin,
/// the paper's "Point Estimate" ablation (section 4.6).
class ScalarTtpPredictor final : public abr::TxTimePredictor {
 public:
  explicit ScalarTtpPredictor(std::shared_ptr<const fugu::TtpModel> model,
                              bool point_estimate = false);

  void begin_decision(const abr::AbrObservation& obs) override;
  abr::TxTimeDistribution predict(int step, int64_t size_bytes) override;
  void on_chunk_complete(const abr::ChunkRecord& record) override;
  void reset_session() override;

 private:
  std::shared_ptr<const fugu::TtpModel> model_;
  bool point_estimate_;
  fugu::TtpHistory history_;
  net::TcpInfo current_tcp_;
  std::vector<float> features_;  ///< reused across predict() calls
  nn::ForwardScratch forward_;   ///< reused across predict() calls
};

}  // namespace puffer::oracle

#endif  // PUFFER_TESTS_ORACLES_TTP_REFERENCE_HH
