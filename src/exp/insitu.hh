#ifndef PUFFER_EXP_INSITU_HH
#define PUFFER_EXP_INSITU_HH

#include <iosfwd>
#include <optional>
#include <string>

#include "exp/trial.hh"
#include "fugu/ttp_trainer.hh"

namespace puffer::exp {

/// Serialize a full TTP (all horizon networks) for caching/warm starts. The
/// stream overloads exist so larger containers (the campaign checkpoint) can
/// embed a model inside their own files.
void save_ttp(const fugu::TtpModel& model, std::ostream& out);
void save_ttp(const fugu::TtpModel& model, const std::string& path);

/// Load a TTP if the input exists, parses, and matches `config`; nullopt
/// otherwise (the miss contract of util/file_io.hh) — callers treat any
/// failure as "retrain from scratch". The path overloads write and read
/// through util/file_io.hh.
std::optional<fugu::TtpModel> try_load_ttp(const fugu::TtpConfig& config,
                                           std::istream& in);
std::optional<fugu::TtpModel> try_load_ttp(const fugu::TtpConfig& config,
                                           const std::string& path);

/// Serialize a raw telemetry dataset (Appendix B-style chunk logs). Loading
/// follows the same contract as try_load_ttp.
void save_dataset(const fugu::TtpDataset& dataset, std::ostream& out);
void save_dataset(const fugu::TtpDataset& dataset, const std::string& path);
std::optional<fugu::TtpDataset> try_load_dataset(std::istream& in);
std::optional<fugu::TtpDataset> try_load_dataset(const std::string& path);

/// Collect one day of telemetry by streaming sessions with the deployed
/// classical schemes (BBA, MPC-HM, RobustMPC-HM) over the given scenario.
/// This is the paper's "Data Aggregation" box (Figure 6): Fugu learns from
/// whatever traffic the deployment carries. `num_threads` shards the session
/// loop like any trial (0 = all cores); the dataset is bit-identical at any
/// value. `stream` forwards per-stream knobs (buffer size, simulation
/// budget) to the session loop.
fugu::TtpDataset collect_telemetry(const net::ScenarioSpec& scenario,
                                   int num_sessions, int day, uint64_t seed,
                                   int num_threads = 0,
                                   sim::StreamRunConfig stream = {});

/// Collect `days` days of telemetry and train a TTP on the window ending at
/// the last day — "learning in situ" when the scenario is the deployment
/// world ("puffer"), and the "Emulation-trained Fugu" arm when it is
/// "fcc-emulation". Any registered scenario family works: this is how a TTP
/// is specialized to a new workload. Collection and training both use all
/// cores; the model does not depend on the core count. For the full
/// day-after-day loop with warm starts, checkpoints, and multiple arms, see
/// exp::Campaign.
fugu::TtpModel train_ttp_on_scenario(const net::ScenarioSpec& scenario,
                                     const fugu::TtpConfig& config,
                                     const fugu::TtpTrainConfig& train_config,
                                     int days, int sessions_per_day,
                                     uint64_t seed,
                                     fugu::TtpTrainReport* report = nullptr);

}  // namespace puffer::exp

#endif  // PUFFER_EXP_INSITU_HH
