#ifndef PUFFER_SIM_FAULTS_HH
#define PUFFER_SIM_FAULTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hh"

namespace puffer::sim {

// Fault family names: string keys, so new failure modes compose without
// enum churn. FaultPlan::add accepts exactly the names in kFaultFamilies.

/// TTP inference fails or times out for one decision.
inline constexpr std::string_view kFaultTtpInference = "ttp-inference";
/// The viewer aborts the stream mid-chunk (user model).
inline constexpr std::string_view kFaultSessionAbort = "session-abort";
/// A telemetry stream is lost before aggregation.
inline constexpr std::string_view kFaultTelemetryLoss = "telemetry-loss";
/// A telemetry stream is delivered twice.
inline constexpr std::string_view kFaultTelemetryDup = "telemetry-dup";
/// A nightly retrain attempt crashes.
inline constexpr std::string_view kFaultRetrainCrash = "retrain-crash";
/// A campaign checkpoint load attempt fails.
inline constexpr std::string_view kFaultCheckpointLoad = "checkpoint-load";
/// A deployed-model block is corrupt at restore.
inline constexpr std::string_view kFaultModelLoad = "model-load";
/// A shared bottleneck link goes dark for a window.
inline constexpr std::string_view kFaultLinkOutage = "link-outage";

/// Every fault family, sorted by name.
inline constexpr std::array<std::string_view, 8> kFaultFamilies = {
    kFaultCheckpointLoad, kFaultLinkOutage,    kFaultModelLoad,
    kFaultRetrainCrash,   kFaultSessionAbort,  kFaultTelemetryDup,
    kFaultTelemetryLoss,  kFaultTtpInference};

/// One fault family's knobs: an injection probability per opportunity, plus
/// a duration for window-shaped faults (link outages).
struct FaultSpec {
  std::string family;
  double probability = 0.0;
  double duration_s = 0.0;

  bool operator==(const FaultSpec&) const = default;
};

/// Seeded fault plan. Every injection decision is a PURE function of
/// (plan seed, family, caller-supplied stable keys): draws go through
/// dedicated util::Rng splits, never a shared mutable stream, so fault
/// schedules are invariant to thread count, shard count, and event
/// interleaving — the fleet==sequential bitwise contract holds with
/// faults enabled. Virtual time alone advances the schedule.
struct FaultPlan {
  bool enabled = false;
  uint64_t seed = 0;
  std::vector<FaultSpec> specs;

  /// Add (or overwrite) a family's spec. A family outside kFaultFamilies is
  /// an error whose message lists the known ones.
  void add(std::string_view family, double probability, double duration_s = 0.0);

  [[nodiscard]] const FaultSpec* find(std::string_view family) const;
  [[nodiscard]] bool has(std::string_view family) const;
  /// Injection probability for a family; 0 when absent or plan disabled.
  [[nodiscard]] double probability(std::string_view family) const;
  [[nodiscard]] double duration_s(std::string_view family) const;

  /// Root of a family's dedicated draw stream. Callers split further with
  /// stable keys (session run seed, day, arm, attempt, group index) before
  /// drawing, e.g.:
  ///   plan.rng(kFaultRetrainCrash).split(day).split(arm).split(attempt)
  [[nodiscard]] Rng rng(std::string_view family) const;

  /// One-shot Bernoulli draw keyed on stable keys (applied as successive
  /// index splits). Returns false when the plan is disabled or the family
  /// has no spec.
  [[nodiscard]] bool draw(std::string_view family,
                          std::initializer_list<uint64_t> keys) const;

  /// Canonical string for cache keys / checkpoint fingerprints. Callers
  /// must mix this in ONLY when enabled, so zero-fault artifacts keep
  /// their pre-fault identities.
  [[nodiscard]] std::string fingerprint_key() const;

  bool operator==(const FaultPlan&) const = default;
};

}  // namespace puffer::sim

#endif  // PUFFER_SIM_FAULTS_HH
