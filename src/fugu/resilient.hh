#ifndef PUFFER_FUGU_RESILIENT_HH
#define PUFFER_FUGU_RESILIENT_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "abr/mpc_abr.hh"
#include "abr/throughput_predictors.hh"
#include "fugu/ttp.hh"
#include "sim/faults.hh"
#include "util/rng.hh"

namespace puffer::fugu {

/// Per-session fault/degradation accounting, harvested into faults.*
/// metrics by the trial layer. Pure per-session counts: partition- and
/// interleaving-invariant (determinism class plain).
struct SessionFaultStats {
  int64_t decisions = 0;
  int64_t failures = 0;            ///< injected inference failures
  int64_t fallback_decisions = 0;  ///< decisions served by the HM fallback
  int64_t engagements = 0;         ///< entries into degraded mode
  bool degraded = false;           ///< degraded at end of session
};

/// Graceful-degradation wrapper around a TTP predictor: when TTP inference
/// fails (injected per-decision by a sim::FaultPlan), the decision is served
/// by the classical harmonic-mean throughput predictor instead; sustained
/// failure latches degraded mode, and a healthy streak re-promotes the
/// primary (hysteresis, so the scheme does not flap between predictors).
///
/// Determinism: the failure schedule is a per-session stream seeded from
/// (fault seed, family, session run seed) — installed by begin_session(),
/// drawn sequentially within the session — so it is a pure function of the
/// session regardless of pooling order, thread count, or shard count.
/// Until begin_session() is called (or after reset_session()) the wrapper
/// is a transparent pass-through.
class ResilientPredictor final : public abr::TxTimePredictor {
 public:
  /// Hysteresis of the degradation ladder. Consecutive inference failures
  /// before the wrapper enters degraded mode (the per-decision fallback
  /// still serves every failed decision immediately — this gates the sticky
  /// state, not the first response).
  static constexpr int kEngageAfterFailures = 2;
  /// Consecutive healthy decisions in degraded mode before the primary is
  /// re-promoted.
  static constexpr int kRepromoteAfterSuccesses = 8;

  ResilientPredictor(std::unique_ptr<abr::TxTimePredictor> primary,
                     double failure_probability, uint64_t fault_seed);

  /// Install this session's fault stream. Call after reset_session(), with
  /// the session plan's run seed.
  void begin_session(uint64_t run_seed);

  void begin_decision(const abr::AbrObservation& obs) override;
  abr::TxTimeDistribution predict(int step, int64_t size_bytes) override;
  void predict_batch(std::span<const abr::TxTimeQuery> queries,
                     std::vector<abr::TxTimeDistribution>& out) override;
  void on_chunk_complete(const abr::ChunkRecord& record) override;
  void reset_session() override;

  [[nodiscard]] const SessionFaultStats& session_stats() const {
    return stats_;
  }
  [[nodiscard]] bool degraded() const { return stats_.degraded; }
  [[nodiscard]] abr::TxTimePredictor& primary() { return *primary_; }

 private:
  [[nodiscard]] abr::TxTimePredictor& active();

  std::unique_ptr<abr::TxTimePredictor> primary_;
  abr::HarmonicMeanPredictor fallback_;
  double failure_probability_;
  uint64_t fault_seed_;

  std::optional<Rng> session_stream_;
  bool current_failed_ = false;
  int consecutive_failures_ = 0;
  int consecutive_successes_ = 0;
  SessionFaultStats stats_;
};

/// Assemble Fugu with its TTP wrapped in a ResilientPredictor when `faults`
/// enables the ttp-inference family; byte-for-byte the plain make_fugu
/// assembly otherwise (the zero-fault contract).
std::unique_ptr<abr::MpcAbr> make_resilient_fugu(
    std::shared_ptr<const TtpModel> model, const sim::FaultPlan& faults,
    std::string name = "Fugu", bool point_estimate = false);

}  // namespace puffer::fugu

#endif  // PUFFER_FUGU_RESILIENT_HH
