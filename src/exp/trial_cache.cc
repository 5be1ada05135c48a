#include "exp/trial_cache.hh"

#include <cstdio>
#include <sstream>

#include "exp/insitu.hh"
#include "exp/models.hh"
#include "media/ladder.hh"
#include "nn/serialize.hh"
#include "util/binary_io.hh"
#include "util/file_io.hh"
#include "util/require.hh"
#include "util/rng.hh"

namespace puffer::exp {

namespace {

constexpr uint32_t kTrialMagic = 0x5054524c;  // "PTRL"
constexpr std::string_view kIoContext = "trial cache";

uint64_t read_u64(std::istream& in) {
  return puffer::read_u64(in, kIoContext);
}

double read_f64(std::istream& in) {
  return puffer::read_f64(in, kIoContext);
}

void write_figures(std::ostream& out, const stats::StreamFigures& f) {
  write_f64(out, f.watch_time_s);
  write_f64(out, f.stall_time_s);
  write_f64(out, f.startup_delay_s);
  write_f64(out, f.ssim_mean_db);
  write_f64(out, f.ssim_variation_db);
  write_f64(out, f.first_chunk_ssim_db);
  write_f64(out, f.mean_bitrate_mbps);
  write_f64(out, f.mean_delivery_rate_mbps);
}

stats::StreamFigures read_figures(std::istream& in) {
  stats::StreamFigures f;
  f.watch_time_s = read_f64(in);
  f.stall_time_s = read_f64(in);
  f.startup_delay_s = read_f64(in);
  f.ssim_mean_db = read_f64(in);
  f.ssim_variation_db = read_f64(in);
  f.first_chunk_ssim_db = read_f64(in);
  f.mean_bitrate_mbps = read_f64(in);
  f.mean_delivery_rate_mbps = read_f64(in);
  return f;
}

uint64_t cache_key(const TrialConfig& config,
                   const SchemeArtifacts& artifacts) {
  std::ostringstream key;
  for (const auto& scheme : config.schemes) {
    key << scheme << '|';
  }
  key << config.sessions_per_scheme << '|'
      << config.scenario.fingerprint() << '|' << config.seed << '|'
      << config.paired_paths << '|' << kMinWatchTimeS << '|'
      << media::kMaxBufferS << '|' << config.stream.lookahead_chunks << '|'
      << sim::kPlayerInitDelayS << '|' << config.stream.max_stream_chunks;
  // The fault plane joins the key only when enabled: pre-existing zero-fault
  // cache entries keep their filenames, and a faulted run can never be
  // served a fault-free result (or vice versa).
  if (config.faults.enabled) {
    key << '|' << config.faults.fingerprint_key();
  }
  // Each trained model joins the key by the bytes it saves as, so a trial
  // computed with one set of models is never served after they change. A
  // null artifact adds nothing: model-free entries keep their filenames.
  if (artifacts.ttp_insitu != nullptr) {
    std::ostringstream bytes;
    save_ttp(*artifacts.ttp_insitu, bytes);
    key << "|ttp_insitu=" << stable_hash(bytes.str());
  }
  if (artifacts.ttp_emulation != nullptr) {
    std::ostringstream bytes;
    save_ttp(*artifacts.ttp_emulation, bytes);
    key << "|ttp_emulation=" << stable_hash(bytes.str());
  }
  if (artifacts.pensieve_actor != nullptr) {
    std::ostringstream bytes;
    nn::save_mlp(*artifacts.pensieve_actor, bytes);
    key << "|pensieve_actor=" << stable_hash(bytes.str());
  }
  return stable_hash(key.str());
}

void write_trial(std::ostream& out, const TrialResult& trial) {
  write_u64(out, kTrialMagic);
  write_u64(out, trial.schemes.size());
  for (const auto& scheme : trial.schemes) {
    write_string(out, scheme.scheme);
    write_u64(out, scheme.considered.size());
    for (const auto& figures : scheme.considered) {
      write_figures(out, figures);
    }
    write_u64(out, scheme.session_durations_s.size());
    for (const double d : scheme.session_durations_s) {
      write_f64(out, d);
    }
    const auto& c = scheme.consort;
    write_u64(out, static_cast<uint64_t>(c.sessions));
    write_u64(out, static_cast<uint64_t>(c.streams));
    write_u64(out, static_cast<uint64_t>(c.never_began));
    write_u64(out, static_cast<uint64_t>(c.under_min_watch));
    write_u64(out, static_cast<uint64_t>(c.decoder_failure));
    write_u64(out, static_cast<uint64_t>(c.truncated));
    write_u64(out, static_cast<uint64_t>(c.considered));
  }
}

uint64_t read_count(std::istream& in) {
  constexpr uint64_t kMaxPlausible = 1u << 24;
  const uint64_t count = read_u64(in);
  require(count <= kMaxPlausible, "trial cache: implausible count");
  return count;
}

TrialResult read_trial(std::istream& in) {
  require(read_u64(in) == kTrialMagic, "trial cache: bad magic");
  TrialResult trial;
  const uint64_t num_schemes = read_count(in);
  for (uint64_t s = 0; s < num_schemes; s++) {
    SchemeResult result;
    result.scheme = read_string(in, kIoContext, (1u << 20) - 1);
    const uint64_t num_figures = read_count(in);
    result.considered.reserve(capped_reservation(num_figures));
    for (uint64_t i = 0; i < num_figures; i++) {
      result.considered.push_back(read_figures(in));
    }
    const uint64_t num_durations = read_count(in);
    result.session_durations_s.reserve(capped_reservation(num_durations));
    for (uint64_t i = 0; i < num_durations; i++) {
      result.session_durations_s.push_back(read_f64(in));
    }
    auto& c = result.consort;
    c.sessions = static_cast<int64_t>(read_u64(in));
    c.streams = static_cast<int64_t>(read_u64(in));
    c.never_began = static_cast<int64_t>(read_u64(in));
    c.under_min_watch = static_cast<int64_t>(read_u64(in));
    c.decoder_failure = static_cast<int64_t>(read_u64(in));
    c.truncated = static_cast<int64_t>(read_u64(in));
    c.considered = static_cast<int64_t>(read_u64(in));
    trial.schemes.push_back(std::move(result));
  }
  return trial;
}

}  // namespace

void save_trial(const TrialResult& trial, const std::string& path) {
  write_file(path, [&trial](std::ostream& out) { write_trial(out, trial); });
}

std::optional<TrialResult> try_load_trial(const std::string& path) {
  return try_read_file(path, read_trial);
}

TrialResult run_trial_cached(const TrialConfig& config,
                             const SchemeArtifacts& artifacts,
                             const std::string& label) {
  const std::string path = model_cache_dir() + "/trial_" + label + "_" +
                           std::to_string(cache_key(config, artifacts)) +
                           ".bin";
  if (auto cached = try_load_trial(path)) {
    return std::move(*cached);
  }
  // Either no entry or a corrupt one: evict it so a failing save below
  // cannot leave stale bytes behind, then recompute and re-save.
  std::remove(path.c_str());
  TrialResult trial = run_trial(config, artifacts);
  save_trial(trial, path);
  return trial;
}

}  // namespace puffer::exp
