#include "exp/models.hh"

#include <cstdlib>
#include <filesystem>

#include "abr/pensieve_trainer.hh"
#include "exp/insitu.hh"
#include "nn/serialize.hh"

namespace puffer::exp {

namespace {

// Training budgets for cached artifacts: small enough to train in about a
// minute each, large enough for stable behaviour. Deterministic in the seed.
constexpr int kTtpDays = 4;
constexpr int kTtpSessionsPerDay = 160;

/// The TTP trained on `family`'s sessions, cached as
/// ttp_<stem>_v3_<seed>.bin in the model cache.
std::shared_ptr<const fugu::TtpModel> get_scenario_ttp(
    const std::string& family, const std::string& stem, const uint64_t seed) {
  const fugu::TtpConfig config;
  const std::string path = model_cache_dir() + "/ttp_" + stem + "_v3_" +
                           std::to_string(seed) + ".bin";
  if (auto cached = try_load_ttp(config, path)) {
    return std::make_shared<const fugu::TtpModel>(std::move(*cached));
  }
  fugu::TtpTrainConfig train_config;
  train_config.epochs = 8;
  train_config.max_examples_per_step = 60000;
  fugu::TtpModel model = train_ttp_on_scenario(
      net::ScenarioSpec{family}, config, train_config, kTtpDays,
      kTtpSessionsPerDay, seed);
  save_ttp(model, path);
  return std::make_shared<const fugu::TtpModel>(std::move(model));
}

}  // namespace

std::string model_cache_dir() {
  // DETLINT-OK(nondet-source): cache-location knob only — the artifacts in
  // the directory are seed-addressed, so the path never affects results
  const char* env = std::getenv("PUFFER_CACHE_DIR");
  const std::string dir = env != nullptr ? env : ".puffer_model_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

std::shared_ptr<const fugu::TtpModel> get_insitu_ttp(const uint64_t seed) {
  return get_scenario_ttp("puffer", "insitu", seed);
}

std::shared_ptr<const fugu::TtpModel> get_emulation_ttp(const uint64_t seed) {
  return get_scenario_ttp("fcc-emulation", "emulation", seed);
}

std::shared_ptr<const nn::Mlp> get_pensieve_actor(const uint64_t seed) {
  const std::string path =
      model_cache_dir() + "/pensieve_actor_" + std::to_string(seed) + ".bin";
  if (auto cached = nn::try_load_mlp_file(path)) {
    return std::make_shared<const nn::Mlp>(std::move(*cached));
  }
  nn::Mlp actor = abr::train_pensieve(abr::PensieveTrainConfig{}, seed);
  nn::save_mlp_file(actor, path);
  return std::make_shared<const nn::Mlp>(std::move(actor));
}

SchemeArtifacts default_artifacts(const uint64_t seed) {
  SchemeArtifacts artifacts;
  artifacts.ttp_insitu = get_insitu_ttp(seed);
  artifacts.ttp_emulation = get_emulation_ttp(seed);
  artifacts.pensieve_actor = get_pensieve_actor(seed);
  return artifacts;
}

fugu::TtpDataset get_insitu_dataset(const uint64_t seed) {
  const std::string path =
      model_cache_dir() + "/dataset_insitu_" + std::to_string(seed) + ".bin";
  if (auto cached = try_load_dataset(path)) {
    return std::move(*cached);
  }
  fugu::TtpDataset dataset;
  for (int day = 0; day < 2; day++) {
    fugu::TtpDataset daily = collect_telemetry(
        net::ScenarioSpec{"puffer"}, 120, day, seed + 1000);
    for (auto& stream : daily) {
      dataset.push_back(std::move(stream));
    }
  }
  save_dataset(dataset, path);
  return dataset;
}

}  // namespace puffer::exp
