#ifndef PUFFER_EXP_CAMPAIGN_HH
#define PUFFER_EXP_CAMPAIGN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/trial.hh"
#include "fugu/dataset.hh"
#include "fugu/ttp_trainer.hh"
#include "obs/metrics.hh"

namespace puffer::obs {
class TraceWriter;
}  // namespace puffer::obs

namespace puffer::exp {

/// One arm of a continual-learning campaign: a scheme from the experiment
/// registry, optionally paired with a TTP that is retrained every night on
/// the telemetry window and redeployed the next morning — the paper's
/// Figure 6 loop. An arm whose scheme needs an in-situ TTP ("Fugu",
/// "Fugu-point-estimate") streams with the nightly model; an arm whose
/// scheme ignores it (e.g. "BBA") may still set `retrain` to shadow-train a
/// predictor on the campaign's traffic and report its accuracy.
struct CampaignArm {
  std::string name;            ///< unique id used in reports and checkpoints
  std::string scheme = "BBA";  ///< exp scheme-registry name
  /// Retrain a TTP at the end of every day on the arm's training window.
  bool retrain = false;
  /// Warm-start each nightly retrain from the previous day's weights — the
  /// paper's deployment behaviour (section 4.3). false = cold restart every
  /// night, the contrast that isolates what warm starts buy (Figure 9).
  bool warm_start = true;
  fugu::TtpConfig ttp;
  fugu::TtpTrainConfig train;
};

/// A contiguous run of days over one scenario. Concatenated phases model
/// mid-campaign workload shifts (e.g. 3 days of "puffer" then 3 days of
/// "cellular"): learners must adapt to the new world from live telemetry.
struct CampaignPhase {
  net::ScenarioSpec scenario;
  int days = 1;
};

struct CampaignConfig {
  std::vector<CampaignArm> arms;
  std::vector<CampaignPhase> phases{CampaignPhase{}};
  /// Sessions of deployment traffic collected per day (classical schemes,
  /// shared by every learner's nightly retrain — Figure 6's aggregation box).
  int telemetry_sessions_per_day = 48;
  /// Sessions each arm streams per day with its deployed scheme/model. Arms
  /// share the day's session plans (same seed), so they are paired.
  int eval_sessions_per_day = 24;
  /// Fresh held-out sessions per day for evaluate_ttp (TTP cross-entropy).
  int holdout_sessions_per_day = 8;
  uint64_t seed = 1;
  /// Worker threads of each day (0 = all cores). The telemetry trial runs
  /// on all of them; then one pool of this many workers runs every
  /// retrain's step networks, the holdout and the arm trials side by side,
  /// and workers without a job of their own help the holdout's and the
  /// trials' fleet shards. Results and deployed models are bit-identical
  /// at any value: every day trial runs on the fleet engine and inherits
  /// its merge discipline, and each fugu::TtpTrainer draws its shuffles in
  /// serial order before its jobs start.
  int num_threads = 0;
  /// Directory for the resumable checkpoint + per-day reports. Empty: the
  /// campaign runs in memory only.
  std::string checkpoint_dir;
  /// Per-stream knobs for every session the campaign simulates (telemetry,
  /// holdout, and arm trials alike). Multi-day workloads usually set
  /// stream.max_stream_chunks so one Pareto-tail viewer cannot dominate a
  /// day's compute.
  sim::StreamRunConfig stream;
  /// Fault-injection plan (disabled by default): retrain crashes, telemetry
  /// loss/duplication, checkpoint/model load failures, plus the per-session
  /// families forwarded into every arm trial. Draws are keyed on
  /// (day, arm, attempt, stream index), so a resumed campaign replays the
  /// remaining days' faults exactly.
  sim::FaultPlan faults;

  [[nodiscard]] int total_days() const;
  [[nodiscard]] const net::ScenarioSpec& scenario_for_day(int day) const;
  /// Hash of every knob that defines the campaign's identity (arms, phases,
  /// session counts, seed). num_threads and checkpoint_dir are excluded: a
  /// checkpoint may be resumed on a different machine or thread count.
  [[nodiscard]] uint64_t fingerprint() const;
};

/// Per-arm figures for one campaign day. Doubles are exact simulation
/// outputs (no bootstrap), so bit-identical runs compare equal with ==.
struct ArmDayStats {
  std::string arm;
  std::string scheme;
  int64_t sessions = 0;
  int64_t considered = 0;
  double ssim_mean_db = 0.0;      ///< watch-time-weighted mean
  double stall_ratio = 0.0;       ///< total stall time / total watch time
  double startup_delay_s = 0.0;   ///< mean over considered streams
  /// TTP metrics from evaluate_ttp on the day's held-out telemetry; -1 when
  /// the arm deploys no model or the holdout produced no usable examples.
  bool has_model = false;
  double cross_entropy = -1.0;
  double top1_accuracy = -1.0;
  uint64_t holdout_examples = 0;
  /// Fault-plane accounting: injected retrain crashes this night, the
  /// virtual-time backoff they cost, and whether the retrain ultimately
  /// failed (degraded: the arm keeps serving yesterday's deployed model).
  int64_t retrain_crashes = 0;
  double retrain_backoff_s = 0.0;
  bool degraded = false;

  friend bool operator==(const ArmDayStats&, const ArmDayStats&) = default;
};

struct DayStats {
  int day = 0;
  std::string scenario;  ///< ScenarioSpec::key() of the day's phase
  uint64_t telemetry_streams = 0;
  uint64_t telemetry_chunks = 0;
  /// Fault-plane accounting: telemetry streams lost / delivered twice on
  /// their way into the aggregator, and whether any arm degraded today.
  uint64_t telemetry_lost = 0;
  uint64_t telemetry_duplicated = 0;
  bool degraded = false;
  std::vector<ArmDayStats> arms;  ///< config.arms order

  friend bool operator==(const DayStats&, const DayStats&) = default;
};

struct CampaignResult {
  std::vector<DayStats> days;  ///< full history, checkpoint-restored included
  /// Days restored from the on-disk checkpoint when the campaign object
  /// first initialized; 0 for a fresh or in-memory campaign. Days carried
  /// across run() calls on the same object are not counted — they were
  /// computed, not restored.
  int restored_days = 0;
  /// Injected checkpoint-load failures exhausted their retry budget, so
  /// the campaign degraded to a flagged fresh start instead of aborting.
  bool fresh_start_degraded = false;
};

/// Per-day CSV (one row per arm-day) / JSON renderings of campaign history.
std::string campaign_report_csv(const std::vector<DayStats>& days);
std::string campaign_report_json(const std::vector<DayStats>& days);

/// The daily in-situ loop as a first-class engine. Each day it
///   1. collects deployment telemetry over the day's scenario,
///   2. streams one day of sessions per arm with the deployed models,
///   3. evaluates each deployed TTP on fresh held-out telemetry,
///   4. retrains every `retrain` arm on its window (warm-started) and
///      redeploys the result for the next day,
/// with steps 2-4 sharing one thread pool (the retrain reads only the
/// telemetry of step 1 and the models deployed this morning), then
/// checkpoints the full campaign state (telemetry window, models,
/// per-day stats) atomically to checkpoint_dir. A killed campaign resumes
/// at the first incomplete day and produces bit-identical per-day stats to
/// an uninterrupted run, at any thread count: every source of randomness is
/// derived fresh from (seed, day, arm), never carried across days except
/// through the serialized state.
class Campaign {
 public:
  /// Validates the configuration and, when checkpoint_dir holds a
  /// checkpoint of this campaign, restores it — so completed_days() and
  /// deployed_model() reflect the on-disk state from construction. Throws
  /// RequirementError for invalid configs, corrupt checkpoints, or a
  /// directory written by a differently-configured campaign.
  explicit Campaign(CampaignConfig config);

  /// Run at most `max_days` further days (< 0: run to completion). Returns
  /// the full per-day history. With a checkpoint_dir, state is persisted
  /// after every day.
  CampaignResult run(int max_days = -1);

  [[nodiscard]] const CampaignConfig& config() const { return config_; }
  [[nodiscard]] int completed_days() const {
    return static_cast<int>(days_.size());
  }
  [[nodiscard]] int total_days() const { return config_.total_days(); }

  /// The currently deployed TTP of an arm: the model trained through the
  /// last completed day (checkpoint-restored days included), or the cold
  /// initial model before any day ran. nullptr for arms without a model.
  [[nodiscard]] const fugu::TtpModel* deployed_model(
      const std::string& arm_name) const;

  /// Sim-plane counters of the work this object performed (days run,
  /// telemetry volume, retrains, checkpoint writes, faults). Derived on each
  /// call from the day records this object computed, plus the checkpoint
  /// and model load outcomes that no day record holds. Deterministic for a
  /// given sequence of run() calls; checkpoint-restored days contribute
  /// nothing (they were not run here).
  [[nodiscard]] obs::MetricSnapshot metrics() const;

  /// Emit the completed days as virtual-time spans on the sim lane
  /// (ts = day * 86400 s): one "campaign.day" span per day with its
  /// scenario and telemetry volume, plus an instant per nightly retrain.
  /// Deterministic: derived from days_ alone.
  void export_trace(obs::TraceWriter& trace) const;

 private:
  void initialize_from_checkpoint_dir();
  void run_one_day(int day);
  void save_checkpoint() const;
  bool try_restore_checkpoint();
  void write_reports() const;
  [[nodiscard]] std::string checkpoint_path() const;

  CampaignConfig config_;
  int max_window_days_ = 1;  ///< widest training window over retrain arms
  int restored_days_ = 0;
  // What metrics() cannot derive from days_: checkpoint writes and
  // injected checkpoint-load / model-load failures.
  int64_t checkpoint_writes_ = 0;
  int64_t checkpoint_load_failures_ = 0;
  int64_t model_load_failures_ = 0;
  bool fresh_start_degraded_ = false;
  fugu::DataAggregator telemetry_;
  /// Deployed model per arm, config.arms order; null for model-free arms.
  /// Immutable between nightly retrains, so trials alias it instead of
  /// copying weights.
  std::vector<std::shared_ptr<const fugu::TtpModel>> deployed_;
  std::vector<DayStats> days_;
};

}  // namespace puffer::exp

#endif  // PUFFER_EXP_CAMPAIGN_HH
