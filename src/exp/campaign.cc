#include "exp/campaign.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iomanip>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "exp/insitu.hh"
#include "exp/registry.hh"
#include "fugu/resilient.hh"
#include "media/ladder.hh"
#include "obs/prof.hh"
#include "obs/trace.hh"
#include "util/binary_io.hh"
#include "util/file_io.hh"
#include "util/json.hh"
#include "util/require.hh"
#include "util/thread_pool.hh"

namespace puffer::exp {

namespace {

constexpr uint64_t kCampaignMagic = 0x50434d50;  // "PCMP"
// v2: day-level telemetry_lost/telemetry_duplicated/degraded and arm-level
// retrain_crashes/retrain_backoff_s/degraded fault accounting.
constexpr uint64_t kCampaignVersion = 2;

// --- graceful degradation --------------------------------------------------

/// Retry attempts after a crashed nightly retrain (total attempts =
/// 1 + kRetrainRetries). On exhaustion the arm keeps yesterday's deployed
/// model and the day is flagged degraded.
constexpr int kRetrainRetries = 2;
/// Virtual-time backoff before retry k is base * factor^(k-1), capped.
constexpr double kRetrainBackoffBaseS = 900.0;
constexpr double kRetrainBackoffFactor = 2.0;
constexpr double kRetrainBackoffMaxS = 7200.0;
/// Retry attempts after a failed checkpoint load; on exhaustion the campaign
/// degrades to a flagged fresh start instead of aborting.
constexpr int kCheckpointRetries = 2;

/// Backoff charged before retry `attempt` (1-based): bounded exponential.
double retrain_backoff_s(const int attempt) {
  const double backoff =
      kRetrainBackoffBaseS *
      std::pow(kRetrainBackoffFactor, static_cast<double>(attempt - 1));
  return std::min(backoff, kRetrainBackoffMaxS);
}

// --- binary checkpoint primitives -----------------------------------------

constexpr std::string_view kIoContext = "campaign checkpoint";

uint64_t read_u64(std::istream& in) {
  return puffer::read_u64(in, kIoContext);
}

double read_f64(std::istream& in) {
  return puffer::read_f64(in, kIoContext);
}

// Strings in a checkpoint (arm names, scheme names, scenario keys) must
// stay below this bound or the file could be written but never read back.
// The writer enforces it (and the Campaign constructor validates the inputs
// up front), the reader treats a violation as corruption.
constexpr size_t kMaxCheckpointString = (1u << 12) - 1;

void write_string(std::ostream& out, const std::string& text) {
  require(text.size() <= kMaxCheckpointString,
          "campaign checkpoint: string too long to round-trip: " + text);
  puffer::write_string(out, text);
}

std::string read_string(std::istream& in) {
  return puffer::read_string(in, kIoContext, kMaxCheckpointString);
}

void write_day_stats(std::ostream& out, const DayStats& day) {
  write_u64(out, static_cast<uint64_t>(day.day));
  write_string(out, day.scenario);
  write_u64(out, day.telemetry_streams);
  write_u64(out, day.telemetry_chunks);
  write_u64(out, day.telemetry_lost);
  write_u64(out, day.telemetry_duplicated);
  write_u64(out, day.degraded ? 1 : 0);
  write_u64(out, day.arms.size());
  for (const auto& arm : day.arms) {
    write_string(out, arm.arm);
    write_string(out, arm.scheme);
    write_u64(out, static_cast<uint64_t>(arm.sessions));
    write_u64(out, static_cast<uint64_t>(arm.considered));
    write_f64(out, arm.ssim_mean_db);
    write_f64(out, arm.stall_ratio);
    write_f64(out, arm.startup_delay_s);
    write_u64(out, arm.has_model ? 1 : 0);
    write_f64(out, arm.cross_entropy);
    write_f64(out, arm.top1_accuracy);
    write_u64(out, arm.holdout_examples);
    write_u64(out, static_cast<uint64_t>(arm.retrain_crashes));
    write_f64(out, arm.retrain_backoff_s);
    write_u64(out, arm.degraded ? 1 : 0);
  }
}

DayStats read_day_stats(std::istream& in) {
  DayStats day;
  day.day = static_cast<int>(read_u64(in));
  day.scenario = read_string(in);
  day.telemetry_streams = read_u64(in);
  day.telemetry_chunks = read_u64(in);
  day.telemetry_lost = read_u64(in);
  day.telemetry_duplicated = read_u64(in);
  day.degraded = read_u64(in) != 0;
  const uint64_t num_arms = read_u64(in);
  require(num_arms < (1u << 10), "campaign checkpoint: implausible arm count");
  day.arms.reserve(num_arms);
  for (uint64_t a = 0; a < num_arms; a++) {
    ArmDayStats arm;
    arm.arm = read_string(in);
    arm.scheme = read_string(in);
    arm.sessions = static_cast<int64_t>(read_u64(in));
    arm.considered = static_cast<int64_t>(read_u64(in));
    arm.ssim_mean_db = read_f64(in);
    arm.stall_ratio = read_f64(in);
    arm.startup_delay_s = read_f64(in);
    arm.has_model = read_u64(in) != 0;
    arm.cross_entropy = read_f64(in);
    arm.top1_accuracy = read_f64(in);
    arm.holdout_examples = read_u64(in);
    arm.retrain_crashes = static_cast<int64_t>(read_u64(in));
    arm.retrain_backoff_s = read_f64(in);
    arm.degraded = read_u64(in) != 0;
    day.arms.push_back(std::move(arm));
  }
  return day;
}

/// Flush a file's (or directory's) data to stable storage. The checkpoint
/// treats corruption as a hard error rather than a restart, so the commit
/// protocol must survive power loss, not just SIGKILL: fsync the temp file
/// before the rename and the directory after it.
void fsync_path(const std::string& path, const bool directory) {
  const int fd =
      ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  require(fd >= 0, "campaign checkpoint: cannot open for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  require(rc == 0, "campaign checkpoint: fsync failed for " + path);
}

// --- seed derivation -------------------------------------------------------
// Every stochastic step draws from a seed derived fresh from
// (config.seed, purpose, day[, arm]) so that a resumed campaign replays the
// remaining days exactly: no generator state survives a day boundary.

uint64_t purpose_seed(const uint64_t seed, const std::string& purpose) {
  return mix64(seed ^ stable_hash(purpose));
}

// --- report helpers --------------------------------------------------------

std::string format_double(const double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

/// RFC-4180 quoting for fields that may contain commas or quotes (scenario
/// keys embed arbitrary trace paths); fields without such characters stay
/// unquoted, so the common case is clean.
std::string csv_field(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) {
    return text;
  }
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"') {
      quoted += '"';
    }
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

// --- CampaignConfig --------------------------------------------------------

int CampaignConfig::total_days() const {
  int total = 0;
  for (const auto& phase : phases) {
    total += phase.days;
  }
  return total;
}

const net::ScenarioSpec& CampaignConfig::scenario_for_day(const int day) const {
  require(day >= 0, "CampaignConfig: negative day");
  int remaining = day;
  for (const auto& phase : phases) {
    if (remaining < phase.days) {
      return phase.scenario;
    }
    remaining -= phase.days;
  }
  throw RequirementError("CampaignConfig: day " + std::to_string(day) +
                         " beyond the campaign's " +
                         std::to_string(total_days()) + " days");
}

uint64_t CampaignConfig::fingerprint() const {
  std::ostringstream canon;
  canon << std::setprecision(17);
  // Free-form fields (trace paths, arm names) are length-prefixed so the
  // canonical form is injective: no crafted string can make two different
  // configs serialize identically and adopt each other's checkpoints.
  const auto field = [&canon](const std::string& text) {
    canon << text.size() << ":" << text;
  };
  canon << "campaign-v1;seed=" << seed
        << ";telemetry=" << telemetry_sessions_per_day
        << ";eval=" << eval_sessions_per_day
        << ";holdout=" << holdout_sessions_per_day
        << ";stream=" << media::kMaxBufferS << "," << stream.lookahead_chunks
        << "," << sim::kPlayerInitDelayS << "," << stream.max_stream_chunks;
  for (const auto& phase : phases) {
    canon << ";phase=";
    field(phase.scenario.key());
    // A trace file joins the identity by content, so a checkpoint never
    // resumes over a trace regenerated in place. Synthetic phases add
    // nothing, keeping their fingerprints byte-for-byte.
    if (!phase.scenario.trace_path.empty()) {
      canon << "#" << phase.scenario.fingerprint();
    }
    canon << "x" << phase.days;
  }
  for (const auto& arm : arms) {
    canon << ";arm=";
    field(arm.name);
    canon << "|";
    field(arm.scheme);
    canon << "|" << arm.retrain << "|" << arm.warm_start
          << "|ttp:" << arm.ttp.history << "," << arm.ttp.use_tcp_info << ","
          << static_cast<int>(arm.ttp.target) << "," << arm.ttp.horizon;
    for (const size_t h : arm.ttp.hidden_layers) {
      canon << "," << h;
    }
    // The training constants keep their historical slots, so every
    // checkpoint's fingerprint is unchanged.
    canon << "|train:" << arm.train.epochs << "," << arm.train.batch_size
          << "," << fugu::TtpTrainConfig::kLearningRate << ","
          << arm.train.window_days << ","
          << fugu::TtpTrainConfig::kRecencyDecay << ","
          << arm.train.max_examples_per_step;
  }
  // The fault plane joins the identity only when enabled, so every
  // pre-existing zero-fault checkpoint keeps its fingerprint byte-for-byte.
  if (faults.enabled) {
    canon << ";faults=";
    field(faults.fingerprint_key());
    canon << ";resilience=" << kRetrainRetries << "," << kRetrainBackoffBaseS
          << "," << kRetrainBackoffFactor << "," << kRetrainBackoffMaxS << ","
          << kCheckpointRetries << ","
          << fugu::ResilientPredictor::kEngageAfterFailures << ","
          << fugu::ResilientPredictor::kRepromoteAfterSuccesses;
  }
  return stable_hash(canon.str());
}

// --- reports ---------------------------------------------------------------

std::string campaign_report_csv(const std::vector<DayStats>& days) {
  std::string csv =
      "day,scenario,arm,scheme,sessions,considered,ssim_db,stall_ratio,"
      "startup_s,has_model,cross_entropy,top1_accuracy,holdout_examples,"
      "degraded,retrain_crashes,retrain_backoff_s\n";
  for (const auto& day : days) {
    for (const auto& arm : day.arms) {
      csv += std::to_string(day.day) + "," + csv_field(day.scenario) + "," +
             csv_field(arm.arm) + "," + csv_field(arm.scheme) + "," +
             std::to_string(arm.sessions) + "," +
             std::to_string(arm.considered) + "," +
             format_double(arm.ssim_mean_db) + "," +
             format_double(arm.stall_ratio) + "," +
             format_double(arm.startup_delay_s) + "," +
             (arm.has_model ? "1" : "0") + "," +
             format_double(arm.cross_entropy) + "," +
             format_double(arm.top1_accuracy) + "," +
             std::to_string(arm.holdout_examples) + "," +
             (arm.degraded ? "1" : "0") + "," +
             std::to_string(arm.retrain_crashes) + "," +
             format_double(arm.retrain_backoff_s) + "\n";
    }
  }
  return csv;
}

std::string campaign_report_json(const std::vector<DayStats>& days) {
  std::string json = "{\"days\":[";
  for (size_t d = 0; d < days.size(); d++) {
    const DayStats& day = days[d];
    json += (d == 0 ? "" : ",");
    json += "{\"day\":" + std::to_string(day.day) + ",\"scenario\":\"" +
            json_escape(day.scenario) +
            "\",\"telemetry_streams\":" + std::to_string(day.telemetry_streams) +
            ",\"telemetry_chunks\":" + std::to_string(day.telemetry_chunks) +
            ",\"telemetry_lost\":" + std::to_string(day.telemetry_lost) +
            ",\"telemetry_duplicated\":" +
            std::to_string(day.telemetry_duplicated) +
            ",\"degraded\":" + (day.degraded ? "true" : "false") +
            ",\"arms\":[";
    for (size_t a = 0; a < day.arms.size(); a++) {
      const ArmDayStats& arm = day.arms[a];
      json += (a == 0 ? "" : ",");
      json += "{\"arm\":\"" + json_escape(arm.arm) + "\",\"scheme\":\"" +
              json_escape(arm.scheme) +
              "\",\"sessions\":" + std::to_string(arm.sessions) +
              ",\"considered\":" + std::to_string(arm.considered) +
              ",\"ssim_db\":" + format_double(arm.ssim_mean_db) +
              ",\"stall_ratio\":" + format_double(arm.stall_ratio) +
              ",\"startup_s\":" + format_double(arm.startup_delay_s) +
              ",\"has_model\":" + (arm.has_model ? "true" : "false") +
              ",\"cross_entropy\":" + format_double(arm.cross_entropy) +
              ",\"top1_accuracy\":" + format_double(arm.top1_accuracy) +
              ",\"holdout_examples\":" + std::to_string(arm.holdout_examples) +
              ",\"degraded\":" + (arm.degraded ? "true" : "false") +
              ",\"retrain_crashes\":" + std::to_string(arm.retrain_crashes) +
              ",\"retrain_backoff_s\":" + format_double(arm.retrain_backoff_s) +
              "}";
    }
    json += "]}";
  }
  json += "]}";
  return json;
}

// --- Campaign --------------------------------------------------------------

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {
  require(!config_.arms.empty(), "Campaign: need at least one arm");
  require(!config_.phases.empty(), "Campaign: need at least one phase");
  for (const auto& phase : config_.phases) {
    require(phase.days > 0, "Campaign: every phase needs days > 0");
    require(net::is_scenario_family(phase.scenario.family),
            "Campaign: unknown scenario family '" + phase.scenario.family +
                "'");
    require(phase.scenario.key().size() <= kMaxCheckpointString,
            "Campaign: scenario key too long to checkpoint: " +
                phase.scenario.key());
  }
  require(config_.telemetry_sessions_per_day > 0 &&
              config_.eval_sessions_per_day > 0 &&
              config_.holdout_sessions_per_day > 0,
          "Campaign: session counts must be positive");

  std::set<std::string> names;
  deployed_.resize(config_.arms.size());
  for (size_t i = 0; i < config_.arms.size(); i++) {
    const CampaignArm& arm = config_.arms[i];
    require(!arm.name.empty(), "Campaign: arm name must be non-empty");
    require(arm.name.find(',') == std::string::npos &&
                arm.name.find('\n') == std::string::npos,
            "Campaign: arm name must not contain ',' or newline");
    require(arm.name.size() <= kMaxCheckpointString,
            "Campaign: arm name too long to checkpoint");
    require(names.insert(arm.name).second,
            "Campaign: duplicate arm name '" + arm.name + "'");

    SchemeArtifacts artifacts;
    if (arm.retrain) {
      // The cold model the arm deploys on day 0, before any telemetry
      // exists: fresh random initialization, deterministic in the seed.
      deployed_[i] = std::make_shared<const fugu::TtpModel>(
          arm.ttp, purpose_seed(config_.seed, "campaign/init/" + arm.name));
      artifacts.ttp_insitu = deployed_[i];
      max_window_days_ = std::max(max_window_days_, arm.train.window_days);
    }
    // Fail now, with the arm's name, rather than mid-campaign: a retrain
    // arm's training values must be ones the nightly retrain can run with,
    // and the scheme must be constructible from what the arm will have at
    // runtime.
    try {
      if (arm.retrain) {
        arm.train.validate();
      }
      static_cast<void>(make_scheme(arm.scheme, artifacts));
    } catch (const RequirementError& error) {
      throw RequirementError("Campaign: arm '" + arm.name + "': " +
                             error.what());
    }
  }

  initialize_from_checkpoint_dir();
}

const fugu::TtpModel* Campaign::deployed_model(
    const std::string& arm_name) const {
  for (size_t i = 0; i < config_.arms.size(); i++) {
    if (config_.arms[i].name == arm_name) {
      return deployed_[i].get();
    }
  }
  throw RequirementError("Campaign: no arm named '" + arm_name + "'");
}

std::string Campaign::checkpoint_path() const {
  return config_.checkpoint_dir + "/campaign.ckpt";
}

void Campaign::initialize_from_checkpoint_dir() {
  if (config_.checkpoint_dir.empty()) {
    return;
  }
  std::filesystem::create_directories(config_.checkpoint_dir);
  // Injected checkpoint-load failures (the file exists but the load "fails"):
  // retry up to kCheckpointRetries times, then degrade to a FLAGGED fresh start
  // instead of aborting the campaign. Real corruption still throws below —
  // only the injected fault family takes the degradation path.
  if (config_.faults.probability(sim::kFaultCheckpointLoad) > 0.0 &&
      std::filesystem::exists(checkpoint_path())) {
    int attempt = 0;
    while (config_.faults.draw(sim::kFaultCheckpointLoad,
                               {static_cast<uint64_t>(attempt)})) {
      checkpoint_load_failures_++;
      attempt++;
      if (attempt > kCheckpointRetries) {
        fresh_start_degraded_ = true;
        return;  // keep the cold day-0 models; the checkpoint stays on disk
      }
    }
  }
  if (try_restore_checkpoint()) {
    restored_days_ = completed_days();
  }
}

bool Campaign::try_restore_checkpoint() {
  std::ifstream in{checkpoint_path(), std::ios::binary};
  if (!in.is_open()) {
    return false;  // fresh campaign
  }
  // From here on, failures are errors, not "start over": silently discarding
  // a corrupt checkpoint could throw away days of compute, and a fingerprint
  // mismatch means the directory belongs to a different campaign.
  require(read_u64(in) == kCampaignMagic,
          "campaign checkpoint: bad magic in " + checkpoint_path() +
              " (corrupt file? clear the checkpoint directory to restart)");
  require(read_u64(in) == kCampaignVersion,
          "campaign checkpoint: unsupported version in " + checkpoint_path());
  require(read_u64(in) == config_.fingerprint(),
          "campaign checkpoint: " + checkpoint_path() +
              " was written by a campaign with a different configuration; "
              "use a fresh checkpoint_dir or clear this one");

  const uint64_t completed = read_u64(in);
  require(completed <= static_cast<uint64_t>(config_.total_days()),
          "campaign checkpoint: more completed days than the campaign has");
  days_.clear();
  days_.reserve(completed);
  for (uint64_t d = 0; d < completed; d++) {
    days_.push_back(read_day_stats(in));
    require(days_.back().day == static_cast<int>(d),
            "campaign checkpoint: day stats out of order");
  }

  std::optional<fugu::TtpDataset> dataset = try_load_dataset(in);
  require(dataset.has_value(), "campaign checkpoint: telemetry block corrupt");
  telemetry_ = fugu::DataAggregator{};
  for (auto& stream : *dataset) {
    telemetry_.add_stream(std::move(stream));
  }

  const uint64_t num_models = read_u64(in);
  require(num_models <= config_.arms.size(),
          "campaign checkpoint: more models than arms");
  for (uint64_t m = 0; m < num_models; m++) {
    const uint64_t index = read_u64(in);
    require(index < config_.arms.size() &&
                config_.arms[static_cast<size_t>(index)].retrain,
            "campaign checkpoint: model for a non-retrain arm");
    std::optional<fugu::TtpModel> model =
        try_load_ttp(config_.arms[static_cast<size_t>(index)].ttp, in);
    require(model.has_value(), "campaign checkpoint: model block corrupt");
    if (config_.faults.draw(sim::kFaultModelLoad, {index})) {
      // Injected model corruption: the bytes were consumed above so the
      // stream stays aligned; degrade this arm to a fresh cold init (the
      // same weights it deployed on day 0) instead of aborting.
      model_load_failures_++;
      deployed_[static_cast<size_t>(index)] =
          std::make_shared<const fugu::TtpModel>(
              config_.arms[static_cast<size_t>(index)].ttp,
              purpose_seed(config_.seed,
                           "campaign/init/" +
                               config_.arms[static_cast<size_t>(index)].name));
      continue;
    }
    deployed_[static_cast<size_t>(index)] =
        std::make_shared<const fugu::TtpModel>(std::move(*model));
  }
  return true;
}

void Campaign::save_checkpoint() const {
  const obs::ProfScope checkpoint_scope{"campaign.checkpoint"};
  const std::string final_path = checkpoint_path();
  const std::string tmp_path = final_path + ".tmp";
  write_file(tmp_path, [this](std::ostream& out) {
    write_u64(out, kCampaignMagic);
    write_u64(out, kCampaignVersion);
    write_u64(out, config_.fingerprint());
    write_u64(out, days_.size());
    for (const auto& day : days_) {
      write_day_stats(out, day);
    }
    save_dataset(telemetry_.all(), out);
    uint64_t num_models = 0;
    for (const auto& model : deployed_) {
      num_models += model != nullptr ? 1 : 0;
    }
    write_u64(out, num_models);
    for (size_t i = 0; i < deployed_.size(); i++) {
      if (deployed_[i]) {
        write_u64(out, i);
        save_ttp(*deployed_[i], out);
      }
    }
  });
  // write_file throws on a short write, so only complete bytes reach the
  // rename. The rename is the commit point: a kill at any earlier moment
  // leaves the previous checkpoint intact, so resume restarts the
  // interrupted day from its beginning with exactly the prior day's state.
  // The fsyncs extend the guarantee to power loss — the rename must never
  // become durable before the bytes it names.
  fsync_path(tmp_path, /*directory=*/false);
  std::filesystem::rename(tmp_path, final_path);
  fsync_path(config_.checkpoint_dir, /*directory=*/true);
}

void Campaign::write_reports() const {
  write_file(config_.checkpoint_dir + "/report.csv", [this](std::ostream& out) {
    out << campaign_report_csv(days_);
  });
  write_file(config_.checkpoint_dir + "/report.json",
             [this](std::ostream& out) { out << campaign_report_json(days_); });
}

void Campaign::run_one_day(const int day) {
  const obs::ProfScope day_scope{"campaign.day"};
  const net::ScenarioSpec& scenario = config_.scenario_for_day(day);
  DayStats stats;
  stats.day = day;
  stats.scenario = scenario.key();

  // 1. Deployment telemetry: one day of live traffic from the classical
  // schemes, shared by every learner (Figure 6's data-aggregation box).
  fugu::TtpDataset daily = collect_telemetry(
      scenario, config_.telemetry_sessions_per_day, day,
      purpose_seed(config_.seed, "campaign/telemetry"), config_.num_threads,
      config_.stream);
  stats.telemetry_streams = daily.size();
  for (const auto& stream : daily) {
    stats.telemetry_chunks += stream.chunks.size();
  }
  // Telemetry-plane faults on the way into the aggregator: a lost stream
  // never reaches training; a duplicated one is ingested twice (double
  // weight). Draws are keyed on (day, stream index) so a resumed campaign
  // replays them exactly.
  for (uint64_t j = 0; j < daily.size(); j++) {
    auto& stream = daily[j];
    if (config_.faults.draw(sim::kFaultTelemetryLoss,
                            {static_cast<uint64_t>(day), j})) {
      stats.telemetry_lost++;
      continue;
    }
    if (config_.faults.draw(sim::kFaultTelemetryDup,
                            {static_cast<uint64_t>(day), j})) {
      stats.telemetry_duplicated++;
      telemetry_.add_stream(fugu::StreamLog{stream});
    }
    telemetry_.add_stream(std::move(stream));
  }

  // 2. The nightly retrain's serial pre-pass: each learning arm trains on
  // its window over the shared telemetry, warm-started from the model it
  // streams with today, and deploys the result tomorrow (paper section
  // 4.3). Injected retrain crashes retry with bounded virtual-time backoff;
  // on an exhausted budget the arm keeps serving today's model (the
  // degraded path the paper's deployment would take). Attempt 0 draws from
  // the unmodified train stream so zero-fault campaigns stay byte-identical
  // to pre-fault builds; retries split a dedicated "retry" branch.
  const size_t num_arms = config_.arms.size();
  stats.arms.resize(num_arms);
  std::vector<std::optional<fugu::TtpTrainer>> trainers(num_arms);
  for (size_t i = 0; i < num_arms; i++) {
    const CampaignArm& arm = config_.arms[i];
    if (!arm.retrain) {
      continue;
    }
    const Rng train_base = Rng{config_.seed}
                               .split("campaign/train")
                               .split(static_cast<uint64_t>(i))
                               .split(static_cast<uint64_t>(day));
    ArmDayStats& arm_stats = stats.arms[i];
    for (int attempt = 0; attempt < 1 + kRetrainRetries; attempt++) {
      if (config_.faults.draw(sim::kFaultRetrainCrash,
                              {static_cast<uint64_t>(day),
                               static_cast<uint64_t>(i),
                               static_cast<uint64_t>(attempt)})) {
        arm_stats.retrain_crashes++;
        arm_stats.retrain_backoff_s += retrain_backoff_s(attempt + 1);
        continue;
      }
      Rng train_rng =
          attempt == 0
              ? train_base
              : train_base.split("retry").split(static_cast<uint64_t>(attempt));
      trainers[i].emplace(arm.ttp, telemetry_.all(), day, arm.train,
                          train_rng,
                          arm.warm_start ? deployed_[i].get() : nullptr);
      break;
    }
    if (!trainers[i]) {
      arm_stats.degraded = true;  // tomorrow serves today's model unchanged
      stats.degraded = true;
    }
  }

  // 3. One pool for the rest of the day: every retrain's step networks
  // first (they cannot be split), then fresh held-out telemetry (never
  // trained on) on which each deployed TTP is evaluated, then one day of
  // sessions per arm with the deployed scheme/model. The holdout and the
  // arm trials run their fleet shards as nested runs on the same workers
  // (ThreadPool::run), so a worker without a job of its own helps them and
  // the day never has more than num_threads workers. Every job writes only
  // its own slots; none reads a trainer's model, and deployed_ changes only
  // after the join. All arms share the day's seed, so they stream paired
  // session plans.
  const uint64_t trial_seed =
      mix64(purpose_seed(config_.seed, "campaign/trial") +
            static_cast<uint64_t>(day) * 7919);
  std::vector<TrialResult> trials(num_arms);
  std::vector<std::optional<fugu::TtpEvaluation>> evals(num_arms);
  std::vector<std::function<void()>> jobs;
  for (std::optional<fugu::TtpTrainer>& trainer : trainers) {
    for (int step = 0; trainer && step < trainer->num_steps(); step++) {
      jobs.emplace_back([&trainer, step] { trainer->train_step(step); });
    }
  }
  if (std::any_of(deployed_.begin(), deployed_.end(),
                  [](const auto& m) { return bool(m); })) {
    jobs.emplace_back([&] {
      const fugu::TtpDataset holdout = collect_telemetry(
          scenario, config_.holdout_sessions_per_day, day,
          purpose_seed(config_.seed, "campaign/holdout"), config_.num_threads,
          config_.stream);
      if (holdout.empty()) {
        return;
      }
      for (size_t i = 0; i < num_arms; i++) {
        if (deployed_[i]) {
          evals[i] = evaluate_ttp(*deployed_[i], holdout);
        }
      }
    });
  }
  for (size_t i = 0; i < num_arms; i++) {
    jobs.emplace_back([&, i] {
      TrialConfig trial_config;
      trial_config.schemes = {config_.arms[i].scheme};
      trial_config.sessions_per_scheme = config_.eval_sessions_per_day;
      trial_config.scenario = scenario;
      trial_config.seed = trial_seed;
      trial_config.day = day;
      trial_config.num_threads = config_.num_threads;
      trial_config.stream = config_.stream;
      // Forward the per-session fault families (TTP inference failures,
      // session aborts) into the arm's day of sessions.
      trial_config.faults = config_.faults;
      SchemeArtifacts artifacts;
      artifacts.ttp_insitu = deployed_[i];  // aliased, not copied: immutable
      trials[i] = run_trial(trial_config, artifacts);
    });
  }
  ThreadPool::run(static_cast<int64_t>(jobs.size()),
                  ThreadPool::resolve(config_.num_threads),
                  [&jobs](const int64_t j) { jobs[static_cast<size_t>(j)](); });

  for (size_t i = 0; i < num_arms; i++) {
    const SchemeResult& result = trials[i].schemes.front();
    ArmDayStats& arm_stats = stats.arms[i];
    arm_stats.arm = config_.arms[i].name;
    arm_stats.scheme = config_.arms[i].scheme;
    arm_stats.sessions = result.consort.sessions;
    arm_stats.considered = result.consort.considered;
    double watch_s = 0.0, stall_s = 0.0, ssim_weighted = 0.0, startup_s = 0.0;
    for (const auto& figures : result.considered) {
      watch_s += figures.watch_time_s;
      stall_s += figures.stall_time_s;
      ssim_weighted += figures.ssim_mean_db * figures.watch_time_s;
      startup_s += figures.startup_delay_s;
    }
    if (!result.considered.empty() && watch_s > 0.0) {
      arm_stats.ssim_mean_db = ssim_weighted / watch_s;
      arm_stats.stall_ratio = stall_s / watch_s;
      arm_stats.startup_delay_s =
          startup_s / static_cast<double>(result.considered.size());
    }
    arm_stats.has_model = deployed_[i] != nullptr;
    if (evals[i]) {
      arm_stats.cross_entropy = evals[i]->cross_entropy;
      arm_stats.top1_accuracy = evals[i]->top1_accuracy;
      arm_stats.holdout_examples = evals[i]->examples;
    }
    if (trainers[i]) {  // tonight's model serves tomorrow
      deployed_[i] = std::make_shared<const fugu::TtpModel>(
          std::move(*trainers[i]).finish());
    }
  }

  // Keep the in-memory dataset (and therefore the checkpoint) bounded by
  // the widest training window: tomorrow trains at current_day = day + 1.
  telemetry_.prune_before(day + 2 - max_window_days_);

  days_.push_back(std::move(stats));
  if (!config_.checkpoint_dir.empty()) {
    save_checkpoint();
    checkpoint_writes_++;
    write_reports();
  }
}

obs::MetricSnapshot Campaign::metrics() const {
  int64_t telemetry_streams = 0, telemetry_chunks = 0, eval_sessions = 0;
  int64_t retrains = 0, retrain_crashes = 0, retrain_backoff_ms = 0;
  int64_t telemetry_lost = 0, telemetry_duplicated = 0, degraded_days = 0;
  const auto run_days = std::span{days_}.subspan(
      static_cast<size_t>(restored_days_));
  for (const DayStats& day : run_days) {
    telemetry_streams += static_cast<int64_t>(day.telemetry_streams);
    telemetry_chunks += static_cast<int64_t>(day.telemetry_chunks);
    telemetry_lost += static_cast<int64_t>(day.telemetry_lost);
    telemetry_duplicated += static_cast<int64_t>(day.telemetry_duplicated);
    degraded_days += day.degraded ? 1 : 0;
    for (size_t i = 0; i < day.arms.size(); i++) {
      const ArmDayStats& arm = day.arms[i];
      eval_sessions += arm.sessions;
      retrains += config_.arms[i].retrain && !arm.degraded ? 1 : 0;
      retrain_crashes += arm.retrain_crashes;
      // Crashes are the night's first attempts, each charged its backoff
      // in whole milliseconds.
      for (int attempt = 1; attempt <= arm.retrain_crashes; attempt++) {
        retrain_backoff_ms +=
            static_cast<int64_t>(retrain_backoff_s(attempt) * 1000.0);
      }
    }
  }
  // Every fault draw is a pure function of (plan seed, family, day/arm/
  // attempt keys), so these counters are deterministic for a given config
  // at any thread count (class: plain).
  const std::pair<const char*, int64_t> counters[] = {
      {"campaign.days_run", static_cast<int64_t>(run_days.size())},
      {"campaign.telemetry_streams", telemetry_streams},
      {"campaign.telemetry_chunks", telemetry_chunks},
      {"campaign.eval_sessions", eval_sessions},
      {"campaign.retrains", retrains},
      {"campaign.checkpoint_writes", checkpoint_writes_},
      {"faults.retrain_crashes", retrain_crashes},
      {"faults.retrain_backoff_ms", retrain_backoff_ms},
      {"faults.telemetry_lost", telemetry_lost},
      {"faults.telemetry_duplicated", telemetry_duplicated},
      {"faults.checkpoint_load_failures", checkpoint_load_failures_},
      {"faults.checkpoint_fresh_starts", fresh_start_degraded_ ? 1 : 0},
      {"faults.model_load_failures", model_load_failures_},
      {"faults.degraded_days", degraded_days},
  };
  obs::MetricRegistry registry;
  for (const auto& [name, value] : counters) {
    registry.add(registry.counter(name), value);
  }
  return registry.snapshot();
}

void Campaign::export_trace(obs::TraceWriter& trace) const {
  constexpr double kDayUs = 86400.0 * 1e6;  // virtual day on the sim lane
  trace.process_name(obs::kSimTracePid, "virtual time (sim)");
  trace.thread_name(obs::kSimTracePid, 0, "campaign days");
  for (const DayStats& day : days_) {
    const double start_us = static_cast<double>(day.day) * kDayUs;
    obs::TraceArgs args;
    args.add("scenario", day.scenario);
    args.add("telemetry_streams", static_cast<int64_t>(day.telemetry_streams));
    args.add("telemetry_chunks", static_cast<int64_t>(day.telemetry_chunks));
    trace.complete(obs::kSimTracePid, 0, "campaign.day", start_us, kDayUs,
                   args.str());
    for (const ArmDayStats& arm : day.arms) {
      if (arm.retrain_crashes > 0) {
        // Injected retrain crashes happened during the night's train loop.
        obs::TraceArgs fault_args;
        fault_args.add("family", sim::kFaultRetrainCrash);
        fault_args.add("arm", arm.arm);
        fault_args.add("crashes", arm.retrain_crashes);
        fault_args.add("degraded", static_cast<int64_t>(arm.degraded ? 1 : 0));
        trace.instant(obs::kSimTracePid, 0, "fault", start_us + kDayUs,
                      fault_args.str());
      }
      if (!arm.has_model) {
        continue;
      }
      // The nightly retrain deploys at the end of the day.
      obs::TraceArgs retrain_args;
      retrain_args.add("arm", arm.arm);
      trace.instant(obs::kSimTracePid, 0, "retrain", start_us + kDayUs,
                    retrain_args.str());
    }
  }
}

CampaignResult Campaign::run(const int max_days) {
  const int total = config_.total_days();
  int limit = total;
  if (max_days >= 0) {
    limit = std::min(total, completed_days() + max_days);
  }
  const int already_completed = completed_days();
  while (completed_days() < limit) {
    run_one_day(completed_days());
  }
  if (!config_.checkpoint_dir.empty() && !days_.empty() &&
      completed_days() == already_completed) {
    // Restore-only call (no new day wrote them): a kill between the final
    // checkpoint rename and the report write must not leave the reports
    // permanently one day behind the checkpoint.
    write_reports();
  }
  CampaignResult result;
  result.restored_days = restored_days_;
  result.fresh_start_degraded = fresh_start_degraded_;
  result.days = days_;
  return result;
}

}  // namespace puffer::exp
