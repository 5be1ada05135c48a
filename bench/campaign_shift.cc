// Scenario-shift workload: the deployment world changes mid-campaign (e.g.
// the viewer population moves from home broadband onto LTE) and the nightly
// in-situ loop must adapt from live telemetry alone — the core claim behind
// "learning in situ" generalizing beyond the world it launched in. A thin
// client of exp::Campaign with two phases and two arms (nightly-retrained
// Fugu vs static MPC-HM).
//
//   ./campaign_shift [familyA] [familyB] [days_per_phase]
//                    [--trace-out PATH] [--metrics-out PATH] [--help]
//
// Families accept ScenarioSpec::parse syntax, so "trace-replay:my.trace"
// works. Defaults: puffer cellular 3. --trace-out writes the completed days
// as virtual-time lanes (Chrome trace-event JSON) plus the perf plane's
// wall-clock lanes; --metrics-out dumps the campaign's sim-plane counters.
// --help prints the usage and exits 0; a bad argument prints the error and
// the usage to stderr and exits 2.
//
//   PUFFER_CAMPAIGN_DAYS     days per phase when argv[3] is absent
//   PUFFER_BENCH_SESSIONS    telemetry sessions per day (default 48)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "exp/campaign.hh"
#include "obs/prof.hh"
#include "obs/trace.hh"
#include "util/file_io.hh"
#include "util/require.hh"
#include "util/table.hh"

using namespace puffer;

namespace {

constexpr const char* kUsage =
    "usage: campaign_shift [familyA] [familyB] [days_per_phase]\n"
    "                      [--trace-out PATH] [--metrics-out PATH]\n"
    "\n"
    "Families take ScenarioSpec::parse syntax (e.g. trace-replay:my.trace).\n"
    "Defaults: puffer cellular 3; PUFFER_CAMPAIGN_DAYS sets days_per_phase\n"
    "when it is absent, PUFFER_BENCH_SESSIONS the telemetry sessions per day\n"
    "(default 48).\n";

struct Args {
  bool help = false;
  net::ScenarioSpec before;
  net::ScenarioSpec after;
  int per_phase = 0;
  int telemetry_sessions = 0;
  std::string trace_path;
  std::string metrics_path;
};

/// Throws RequirementError on a missing option value, an unknown option,
/// an extra argument, an unknown family or a days_per_phase (or
/// environment knob) that is not a positive integer.
Args parse_args(const int argc, char** argv) {
  Args args;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      require(i + 1 < argc, "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      args.help = true;
      return args;
    }
    if (arg == "--trace-out") {
      args.trace_path = next();
    } else if (arg == "--metrics-out") {
      args.metrics_path = next();
    } else {
      require(!arg.starts_with("--"), "unknown option " + arg);
      positional.push_back(arg);
    }
  }
  require(positional.size() <= 3,
          "expected at most 3 positional arguments, got " +
              std::to_string(positional.size()));
  args.before =
      net::ScenarioSpec::parse(!positional.empty() ? positional[0] : "puffer");
  args.after = net::ScenarioSpec::parse(
      positional.size() > 1 ? positional[1] : "cellular");
  args.per_phase =
      positional.size() > 2
          ? bench::parse_positive_int(positional[2], "days_per_phase")
          : bench::positive_env_int("PUFFER_CAMPAIGN_DAYS", 3);
  args.telemetry_sessions = bench::sessions_per_scheme(48);
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const RequirementError& error) {
    std::fprintf(stderr, "campaign_shift: %s\n\n%s", error.what(), kUsage);
    return 2;
  }
  if (args.help) {
    std::printf("%s", kUsage);
    return 0;
  }

  exp::CampaignArm fugu;
  fugu.name = "fugu-daily";
  fugu.scheme = "Fugu";
  fugu.retrain = true;
  fugu.train.epochs = 2;
  fugu.train.max_examples_per_step = 20000;
  exp::CampaignArm mpc;
  mpc.name = "mpc";
  mpc.scheme = "MPC-HM";

  exp::CampaignConfig config;
  config.arms = {fugu, mpc};
  config.phases = {exp::CampaignPhase{args.before, args.per_phase},
                   exp::CampaignPhase{args.after, args.per_phase}};
  config.telemetry_sessions_per_day = args.telemetry_sessions;
  config.eval_sessions_per_day =
      std::max(8, config.telemetry_sessions_per_day / 2);
  config.holdout_sessions_per_day =
      std::max(6, config.telemetry_sessions_per_day / 4);
  config.seed = 7;
  config.stream.max_stream_chunks = 1000;
  config.checkpoint_dir = exp::model_cache_dir() + "/campaign_shift_" +
                          std::to_string(config.fingerprint());

  std::printf("[setup] scenario shift %s -> %s after %d day(s), %d telemetry "
              "sessions/day (checkpointed in %s)\n\n",
              args.before.family.c_str(), args.after.family.c_str(),
              args.per_phase, config.telemetry_sessions_per_day,
              config.checkpoint_dir.c_str());

  exp::Campaign campaign{config};
  obs::prof_reset();  // scope the wall lanes to the campaign itself
  const exp::CampaignResult result = campaign.run();
  if (result.restored_days > 0) {
    std::printf("[resume] restored %d completed day(s) from the checkpoint\n\n",
                result.restored_days);
  }

  Table table{{"Day", "Scenario", "Fugu SSIM (dB)", "Fugu stall %",
               "TTP CE (nats)", "MPC SSIM (dB)"}};
  for (const exp::DayStats& day : result.days) {
    const exp::ArmDayStats& f = day.arms[0];
    table.add_row({std::to_string(day.day), day.scenario,
                   format_fixed(f.ssim_mean_db, 2),
                   format_percent(f.stall_ratio, 2),
                   format_fixed(f.cross_entropy, 3),
                   format_fixed(day.arms[1].ssim_mean_db, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // The shift day streams the new world with a model trained entirely on the
  // old one; by the final day the window is full of new-world telemetry.
  const exp::ArmDayStats& shift_day =
      result.days[static_cast<size_t>(args.per_phase)].arms[0];
  const exp::ArmDayStats& final_day = result.days.back().arms[0];
  const bool holds = final_day.cross_entropy < shift_day.cross_entropy;
  std::printf("Shape check: nightly retraining adapts the TTP to the new "
              "scenario (CE %.3f on the shift day -> %.3f by day %d): %s\n",
              shift_day.cross_entropy, final_day.cross_entropy,
              result.days.back().day, holds ? "holds" : "VIOLATED");

  if (!args.trace_path.empty()) {
    obs::TraceWriter trace;
    campaign.export_trace(trace);  // virtual-time day lanes (deterministic)
    obs::prof_export_trace(trace);  // wall-clock lanes (perf plane)
    write_file(args.trace_path,
               [&trace](std::ostream& out) { out << trace.str(); });
    std::printf("wrote %s (%zu trace events)\n", args.trace_path.c_str(),
                trace.event_count());
  }
  if (!args.metrics_path.empty()) {
    write_file(args.metrics_path, [&campaign](std::ostream& out) {
      out << campaign.metrics().to_json();
    });
    std::printf("wrote %s\n", args.metrics_path.c_str());
  }
  return holds ? 0 : 1;
}
