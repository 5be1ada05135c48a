// Scenario-shift workload: the deployment world changes mid-campaign (e.g.
// the viewer population moves from home broadband onto LTE) and the nightly
// in-situ loop must adapt from live telemetry alone — the core claim behind
// "learning in situ" generalizing beyond the world it launched in. A thin
// client of exp::Campaign with two phases and two arms (nightly-retrained
// Fugu vs static MPC-HM).
//
//   ./campaign_shift [familyA] [familyB] [days_per_phase]
//                    [--trace-out PATH] [--metrics-out PATH]
//
// Families accept ScenarioSpec::parse syntax, so "trace-replay:my.trace"
// works. Defaults: puffer cellular 3. --trace-out writes the completed days
// as virtual-time lanes (Chrome trace-event JSON) plus the perf plane's
// wall-clock lanes; --metrics-out dumps the campaign's sim-plane counters.
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

int main(int argc, char** argv) {
  using namespace puffer;

  std::string trace_path, metrics_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      require(i + 1 < argc, "campaign_shift: missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--trace-out") {
      trace_path = next();
    } else if (arg == "--metrics-out") {
      metrics_path = next();
    } else {
      positional.push_back(arg);
    }
  }

  const net::ScenarioSpec before =
      net::ScenarioSpec::parse(!positional.empty() ? positional[0] : "puffer");
  const net::ScenarioSpec after = net::ScenarioSpec::parse(
      positional.size() > 1 ? positional[1] : "cellular");
  const int per_phase =
      positional.size() > 2
          ? std::max(1, std::atoi(positional[2].c_str()))
          : bench::positive_env_int("PUFFER_CAMPAIGN_DAYS", 3);

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
  config.phases = {exp::CampaignPhase{before, per_phase},
                   exp::CampaignPhase{after, per_phase}};
  config.telemetry_sessions_per_day = bench::sessions_per_scheme(48);
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
              before.family.c_str(), after.family.c_str(), per_phase,
              config.telemetry_sessions_per_day,
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
      result.days[static_cast<size_t>(per_phase)].arms[0];
  const exp::ArmDayStats& final_day = result.days.back().arms[0];
  const bool holds = final_day.cross_entropy < shift_day.cross_entropy;
  std::printf("Shape check: nightly retraining adapts the TTP to the new "
              "scenario (CE %.3f on the shift day -> %.3f by day %d): %s\n",
              shift_day.cross_entropy, final_day.cross_entropy,
              result.days.back().day, holds ? "holds" : "VIOLATED");

  if (!trace_path.empty()) {
    obs::TraceWriter trace;
    campaign.export_trace(trace);  // virtual-time day lanes (deterministic)
    obs::prof_export_trace(trace);  // wall-clock lanes (perf plane)
    write_file(trace_path, [&trace](std::ostream& out) { out << trace.str(); });
    std::printf("wrote %s (%zu trace events)\n", trace_path.c_str(),
                trace.event_count());
  }
  if (!metrics_path.empty()) {
    write_file(metrics_path, [&campaign](std::ostream& out) {
      out << campaign.metrics().to_json();
    });
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return holds ? 0 : 1;
}
