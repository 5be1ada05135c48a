#ifndef PUFFER_NET_SCENARIO_HH
#define PUFFER_NET_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/trace_file.hh"
#include "net/trace_models.hh"
#include "util/rng.hh"

namespace puffer::net {

/// Names the network world a trial's sessions stream over. `family` is one of
/// scenario_families(); `trace_path` is consumed by file-driven
/// families ("trace-replay" loads a Mahimahi-style trace from it) and ignored
/// by the synthetic ones.
struct ScenarioSpec {
  ScenarioSpec() = default;
  explicit ScenarioSpec(std::string family_name, std::string trace = {})
      : family(std::move(family_name)), trace_path(std::move(trace)) {}

  std::string family = "puffer";
  std::string trace_path;

  /// Stable textual identity (family and trace path).
  [[nodiscard]] std::string key() const { return family + ":" + trace_path; }

  /// Hash of key() and, for file-driven scenarios, of what the trace file
  /// contains: regenerating a trace in place changes the fingerprint.
  [[nodiscard]] uint64_t fingerprint() const;

  /// Parse "family" or "family:trace_path" (the inverse of key(), with the
  /// trailing ':' optional) — the CLI syntax of the scenario-driven benches.
  [[nodiscard]] static ScenarioSpec parse(const std::string& text);

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// The scenario families are the rows of one fixed table in scenario.cc
/// (README "Scenario engine" describes each); a new family is a new row.
/// True when `name` is one of them.
[[nodiscard]] bool is_scenario_family(std::string_view name);
/// Family names in sorted order.
[[nodiscard]] std::vector<std::string> scenario_families();
/// One-line description of a family, for CLI listings and docs. Throws
/// RequirementError for an unknown family.
[[nodiscard]] std::string_view scenario_description(std::string_view name);

/// Instantiate the generator for `spec`. Throws RequirementError for an
/// unknown family or a spec the family rejects (trace-replay without a
/// readable trace file).
std::unique_ptr<PathGenerator> make_path_generator(const ScenarioSpec& spec);

/// Replays one Mahimahi-style trace for every session, mahimahi-shell style:
/// fixed RTT, trace looped end-to-end to cover any session duration.
class TraceReplayGenerator : public PathGenerator {
 public:
  static constexpr double kMinRttS = 0.040;
  static constexpr double kBinDurationS = 0.5;

  explicit TraceReplayGenerator(const TraceFile& file);

  [[nodiscard]] NetworkPath sample_path(Rng& rng,
                                        double duration_s) const override;

 private:
  ThroughputTrace binned_;
};

}  // namespace puffer::net

#endif  // PUFFER_NET_SCENARIO_HH
