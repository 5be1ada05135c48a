#ifndef PUFFER_EXP_TRIAL_CACHE_HH
#define PUFFER_EXP_TRIAL_CACHE_HH

#include <optional>
#include <string>

#include "exp/trial.hh"

namespace puffer::exp {

/// Serialize a TrialResult (scheme figures, session durations, CONSORT
/// counts — not the raw chunk logs) so that the five figure benches that
/// analyze the same primary experiment share one simulation run. Both go
/// through util/file_io.hh: the save throws on any write failure, and a
/// missing or damaged entry loads as nullopt — a cache miss, never an error.
void save_trial(const TrialResult& trial, const std::string& path);
std::optional<TrialResult> try_load_trial(const std::string& path);

/// Run `config` (via the standard registry and `artifacts`) or load the
/// cached result from a prior identical run. The cache key hashes the
/// configuration and the saved bytes of each trained model in `artifacts`,
/// so changing either re-runs the simulation.
TrialResult run_trial_cached(const TrialConfig& config,
                             const SchemeArtifacts& artifacts,
                             const std::string& label);

}  // namespace puffer::exp

#endif  // PUFFER_EXP_TRIAL_CACHE_HH
