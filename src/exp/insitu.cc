#include "exp/insitu.hh"

#include <algorithm>

#include "nn/serialize.hh"
#include "util/binary_io.hh"
#include "util/file_io.hh"
#include "util/require.hh"

namespace puffer::exp {

namespace {

constexpr uint32_t kTtpMagic = 0x50545450;   // "PTTP"
constexpr uint32_t kDataMagic = 0x50444154;  // "PDAT"
constexpr std::string_view kIoContext = "insitu";

uint64_t read_u64(std::istream& in) {
  return puffer::read_u64(in, kIoContext);
}

double read_f64(std::istream& in) {
  return puffer::read_f64(in, kIoContext);
}

fugu::TtpModel load_ttp(const fugu::TtpConfig& config, std::istream& in) {
  require(read_u64(in) == kTtpMagic, "insitu: bad TTP magic");
  require(read_u64(in) == static_cast<uint64_t>(config.horizon),
          "insitu: TTP horizon differs from the config");
  fugu::TtpModel model{config, /*seed=*/0};
  for (nn::Mlp& slot : model.networks()) {
    nn::Mlp net = nn::load_mlp(in);
    require(net.layer_sizes() == slot.layer_sizes(),
            "insitu: TTP architecture differs from the config");
    slot = std::move(net);
  }
  return model;
}

fugu::TtpDataset load_dataset(std::istream& in) {
  require(read_u64(in) == kDataMagic, "insitu: bad dataset magic");
  fugu::TtpDataset dataset;
  const uint64_t num_streams = read_u64(in);
  dataset.reserve(capped_reservation(num_streams));
  for (uint64_t s = 0; s < num_streams; s++) {
    fugu::StreamLog stream;
    stream.day = static_cast<int>(read_u64(in));
    const uint64_t num_chunks = read_u64(in);
    stream.chunks.reserve(capped_reservation(num_chunks));
    for (uint64_t c = 0; c < num_chunks; c++) {
      fugu::ChunkLog chunk;
      chunk.size_mb = read_f64(in);
      chunk.tx_time_s = read_f64(in);
      chunk.tcp_at_send.cwnd_pkts = read_f64(in);
      chunk.tcp_at_send.in_flight_pkts = read_f64(in);
      chunk.tcp_at_send.min_rtt_s = read_f64(in);
      chunk.tcp_at_send.srtt_s = read_f64(in);
      chunk.tcp_at_send.delivery_rate_bps = read_f64(in);
      stream.chunks.push_back(chunk);
    }
    dataset.push_back(std::move(stream));
  }
  return dataset;
}

}  // namespace

void save_ttp(const fugu::TtpModel& model, std::ostream& out) {
  write_u64(out, kTtpMagic);
  write_u64(out, static_cast<uint64_t>(model.networks().size()));
  for (const auto& net : model.networks()) {
    nn::save_mlp(net, out);
  }
}

void save_ttp(const fugu::TtpModel& model, const std::string& path) {
  write_file(path, [&model](std::ostream& out) { save_ttp(model, out); });
}

std::optional<fugu::TtpModel> try_load_ttp(const fugu::TtpConfig& config,
                                           std::istream& in) {
  return try_read(in, [&config](std::istream& stream) {
    return load_ttp(config, stream);
  });
}

std::optional<fugu::TtpModel> try_load_ttp(const fugu::TtpConfig& config,
                                           const std::string& path) {
  return try_read_file(path, [&config](std::istream& stream) {
    return load_ttp(config, stream);
  });
}

void save_dataset(const fugu::TtpDataset& dataset, std::ostream& out) {
  write_u64(out, kDataMagic);
  write_u64(out, dataset.size());
  for (const auto& stream : dataset) {
    write_u64(out, static_cast<uint64_t>(stream.day));
    write_u64(out, stream.chunks.size());
    for (const auto& chunk : stream.chunks) {
      write_f64(out, chunk.size_mb);
      write_f64(out, chunk.tx_time_s);
      write_f64(out, chunk.tcp_at_send.cwnd_pkts);
      write_f64(out, chunk.tcp_at_send.in_flight_pkts);
      write_f64(out, chunk.tcp_at_send.min_rtt_s);
      write_f64(out, chunk.tcp_at_send.srtt_s);
      write_f64(out, chunk.tcp_at_send.delivery_rate_bps);
    }
  }
}

void save_dataset(const fugu::TtpDataset& dataset, const std::string& path) {
  write_file(path,
             [&dataset](std::ostream& out) { save_dataset(dataset, out); });
}

std::optional<fugu::TtpDataset> try_load_dataset(std::istream& in) {
  return try_read(in, load_dataset);
}

std::optional<fugu::TtpDataset> try_load_dataset(const std::string& path) {
  return try_read_file(path, load_dataset);
}

fugu::TtpDataset collect_telemetry(const net::ScenarioSpec& scenario,
                                   const int num_sessions, const int day,
                                   const uint64_t seed,
                                   const int num_threads,
                                   const sim::StreamRunConfig stream) {
  TrialConfig config;
  config.schemes = {"BBA", "MPC-HM", "RobustMPC-HM"};
  config.sessions_per_scheme =
      std::max(1, num_sessions / static_cast<int>(config.schemes.size()));
  config.scenario = scenario;
  config.seed = seed + static_cast<uint64_t>(day) * 7919;
  config.collect_logs = true;
  config.day = day;
  config.num_threads = num_threads;
  config.stream = stream;

  const SchemeArtifacts no_models;
  TrialResult trial = run_trial(config, no_models);

  fugu::TtpDataset dataset;
  for (auto& scheme : trial.schemes) {
    for (auto& log : scheme.logs) {
      dataset.push_back(std::move(log));
    }
  }
  return dataset;
}

fugu::TtpModel train_ttp_on_scenario(const net::ScenarioSpec& scenario,
                                     const fugu::TtpConfig& config,
                                     const fugu::TtpTrainConfig& train_config,
                                     const int days, const int sessions_per_day,
                                     const uint64_t seed,
                                     fugu::TtpTrainReport* report) {
  fugu::TtpDataset dataset;
  for (int day = 0; day < days; day++) {
    fugu::TtpDataset daily =
        collect_telemetry(scenario, sessions_per_day, day, seed);
    for (auto& stream : daily) {
      dataset.push_back(std::move(stream));
    }
  }
  Rng rng = Rng{seed}.split("ttp-train");
  // All cores, like the telemetry trials above (num_threads = 0).
  return fugu::train_ttp(config, dataset, /*current_day=*/days - 1,
                         train_config, rng, /*warm_start=*/nullptr, report,
                         /*num_threads=*/0);
}

}  // namespace puffer::exp
