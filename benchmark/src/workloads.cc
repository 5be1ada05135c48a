#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "bench.hh"
#include "exp/contention.hh"
#include "exp/registry.hh"
#include "fugu/fugu.hh"
#include "util/require.hh"

namespace puffer::bench {

namespace {

/// Fleet sessions stream at most this many chunks per stream: long enough
/// for steady-state MPC and BBR behaviour, short enough that one heavy-tailed
/// viewer cannot dominate a repetition.
constexpr int kStreamChunkCap = 60;

exp::FleetTrialConfig fleet_base(std::vector<std::string> schemes,
                                 const int sessions) {
  exp::FleetTrialConfig config;
  config.trial.sessions_per_scheme =
      sessions / static_cast<int>(schemes.size());
  config.trial.schemes = std::move(schemes);
  config.trial.seed = kPopulationSeed;
  config.trial.stream.max_stream_chunks = kStreamChunkCap;
  config.arrivals.kind = "poisson";
  config.arrivals.rate_per_s = 0.2;
  return config;
}

std::string describe_fleet(const std::string& name,
                           const exp::FleetTrialConfig& config) {
  std::ostringstream out;
  out << name << "|schemes=";
  for (const auto& scheme : config.trial.schemes) {
    out << scheme << ',';
  }
  out << "|sessions_per_scheme=" << config.trial.sessions_per_scheme
      << "|seed=" << config.trial.seed
      << "|scenario=" << config.trial.scenario.key()
      << "|chunk_cap=" << config.trial.stream.max_stream_chunks
      << "|arrivals=" << config.arrivals.kind << '@'
      << config.arrivals.rate_per_s
      << "|group_size=" << config.contention.group_size
      << "|topology=" << config.contention.topology
      << "|model_seed=" << kPopulationSeed;
  return out.str();
}

std::string describe_campaign(const std::string& name,
                              const exp::CampaignConfig& config) {
  std::ostringstream out;
  out << name << "|fingerprint=" << config.fingerprint()
      << "|days=" << config.total_days()
      << "|telemetry=" << config.telemetry_sessions_per_day
      << "|eval=" << config.eval_sessions_per_day
      << "|holdout=" << config.holdout_sessions_per_day
      << "|chunk_cap=" << config.stream.max_stream_chunks;
  for (const auto& arm : config.arms) {
    out << "|arm=" << arm.name << ':' << arm.scheme << ":retrain="
        << arm.retrain << ":epochs=" << arm.train.epochs
        << ":examples=" << arm.train.max_examples_per_step;
  }
  return out.str();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fleet-mixed", "fleet-bba", "fleet-contention", "campaign"};
  return names;
}

Workload make_workload(const std::string& name) {
  Workload workload;
  workload.name = name;
  if (name == "fleet-mixed") {
    // The headline workload: every layer runs, MPC planning dominates.
    workload.fleet = fleet_base({"Fugu", "MPC-HM", "BBA"}, 120);
  } else if (name == "fleet-bba") {
    // The same session plans, all on BBA: bypasses MPC planning and TTP
    // inference, so TCP/BBR stepping dominates.
    workload.fleet = fleet_base({"BBA"}, 120);
  } else if (name == "fleet-contention") {
    // Shared bottlenecks: lockstep SharedLinkSimulator groups of four over
    // externally-driven TcpSenders instead of private links.
    workload.fleet = fleet_base({"Fugu", "MPC-HM", "BBA"}, 128);
    workload.fleet.trial.scenario = net::ScenarioSpec{"edge-contention"};
    workload.fleet.contention = exp::make_contention_spec("edge", 4);
    workload.fleet.arrivals.rate_per_s = 0.05;
  } else if (name == "campaign") {
    // The in-situ loop: nightly warm-started retraining next to inference,
    // checkpoint writes next to session simulation.
    workload.kind = WorkloadKind::kCampaign;
    exp::CampaignConfig& config = workload.campaign;
    config.seed = kPopulationSeed;
    config.phases = {exp::CampaignPhase{net::ScenarioSpec{"puffer"}, 2}};
    config.telemetry_sessions_per_day = 48;
    config.eval_sessions_per_day = 16;
    config.holdout_sessions_per_day = 8;
    config.stream.max_stream_chunks = kStreamChunkCap;
    exp::CampaignArm fugu_arm;
    fugu_arm.name = "fugu-daily";
    fugu_arm.scheme = "Fugu";
    fugu_arm.retrain = true;
    fugu_arm.warm_start = true;
    fugu_arm.train.epochs = 6;
    fugu_arm.train.max_examples_per_step = 20000;
    exp::CampaignArm mpc_arm;
    mpc_arm.name = "mpc";
    mpc_arm.scheme = "MPC-HM";
    config.arms = {fugu_arm, mpc_arm};
  } else {
    std::string known;
    for (const auto& n : workload_names()) {
      known += (known.empty() ? "" : ", ") + n;
    }
    require(false, "unknown workload '" + name + "' (known: " + known + ")");
  }
  workload.description = workload.kind == WorkloadKind::kFleet
                             ? describe_fleet(name, workload.fleet)
                             : describe_campaign(name, workload.campaign);
  return workload;
}

double quantile(std::vector<double> values, const double q) {
  require(!values.empty(), "quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

exp::FleetTrialConfig on_threads(exp::FleetTrialConfig config,
                                 const int threads) {
  constexpr int kShardsPerThread = 4;
  config.trial.num_threads = threads;
  config.num_shards = threads == 1 ? 1 : kShardsPerThread * threads;
  return config;
}

std::shared_ptr<const fugu::TtpModel> fleet_model() {
  return std::make_shared<const fugu::TtpModel>(fugu::TtpConfig{},
                                                kPopulationSeed);
}

exp::SchemeFactory fleet_factory(std::shared_ptr<const fugu::TtpModel> model) {
  return [model = std::move(model)](const std::string& name)
             -> std::unique_ptr<abr::AbrAlgorithm> {
    if (name == "Fugu") {
      return fugu::make_fugu(model, name);
    }
    return exp::make_scheme(name, exp::SchemeArtifacts{});
  };
}

void audit_trial(const exp::TrialResult& expected, const exp::TrialResult& got,
                 Report& report) {
  for (size_t s = 0; s < expected.schemes.size(); s++) {
    const exp::SchemeResult& a = expected.schemes[s];
    report.attempted += 1 + static_cast<int64_t>(a.considered.size());
    if (s >= got.schemes.size()) {
      report.failed += 1 + static_cast<int64_t>(a.considered.size());
      continue;
    }
    const exp::SchemeResult& b = got.schemes[s];
    const exp::ConsortCounts& x = a.consort;
    const exp::ConsortCounts& y = b.consort;
    if (x.sessions != y.sessions || x.streams != y.streams ||
        x.never_began != y.never_began ||
        x.under_min_watch != y.under_min_watch ||
        x.decoder_failure != y.decoder_failure ||
        x.truncated != y.truncated || x.considered != y.considered) {
      report.failed++;
    }
    for (size_t i = 0; i < a.considered.size(); i++) {
      if (i >= b.considered.size() ||
          std::memcmp(&a.considered[i], &b.considered[i],
                      sizeof(stats::StreamFigures)) != 0) {
        report.failed++;
      }
    }
  }
}

uint64_t figures_digest(const exp::TrialResult& trial) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& scheme : trial.schemes) {
    for (const auto& figures : scheme.considered) {
      unsigned char bytes[sizeof(stats::StreamFigures)];
      std::memcpy(bytes, &figures, sizeof(bytes));
      for (const unsigned char byte : bytes) {
        hash = (hash ^ byte) * 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

std::string work_dir(const std::string& leaf) {
  return "build-bench/work/" + leaf + "-" + std::to_string(::getpid());
}

}  // namespace puffer::bench
