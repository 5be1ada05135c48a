// A miniature version of the Puffer randomized controlled trial (Figure 1):
// sessions arrive, are blindly assigned to one of five ABR schemes, stream
// over heavy-tailed paths with realistic viewer behaviour, and the analysis
// reports each scheme's stall ratio (bootstrap 95% CI), duration-weighted
// SSIM, SSIM variation, and mean time on site.
//
// Usage: mini_randomized_trial [scenario-family [trace-file]]
//                              [--trace-out PATH] [--metrics-out PATH]
//   scenario-family  any family in net::scenario_families()
//                    (default "puffer"); pass "list" to enumerate them
//   trace-file       Mahimahi-style trace, for the "trace-replay" family
//
// The sessions run through the fleet engine (bit-identical to the
// session-sequential loop), so the trial comes with observability for free:
// --trace-out writes the run as Chrome trace-event JSON (virtual-time shard
// lanes + wall-clock worker lanes), --metrics-out dumps the sim-plane
// metric snapshot.
//
// The full-size experiment lives in bench/fig01_primary_table.

#include <cstdio>
#include <string>
#include <vector>

#include "exp/fleet_trial.hh"
#include "exp/models.hh"
#include "exp/trial.hh"
#include "net/scenario.hh"
#include "obs/prof.hh"
#include "obs/trace.hh"
#include "stats/summary.hh"
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
      require(i + 1 < argc,
              "mini_randomized_trial: missing value for " + arg);
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

  exp::FleetTrialConfig fleet_config;
  exp::TrialConfig& config = fleet_config.trial;
  config.sessions_per_scheme = 120;  // miniature; the bench uses many more
  config.seed = 20190119;
  if (!positional.empty()) {
    config.scenario.family = positional[0];
  }
  if (positional.size() > 1) {
    config.scenario.trace_path = positional[1];
  }

  if (config.scenario.family == "list" ||
      !net::is_scenario_family(config.scenario.family)) {
    std::printf("Scenario families:\n");
    for (const auto& name : net::scenario_families()) {
      const std::string_view description = net::scenario_description(name);
      std::printf("  %-18s %.*s\n", name.c_str(),
                  static_cast<int>(description.size()), description.data());
    }
    return config.scenario.family == "list" ? 0 : 1;
  }
  try {
    // Fail fast on a bad spec (e.g. trace-replay without a readable trace
    // file) before the minutes-long artifact preparation below.
    static_cast<void>(net::make_path_generator(config.scenario));
  } catch (const std::exception& error) {
    std::printf("Cannot build scenario '%s': %s\n",
                config.scenario.family.c_str(), error.what());
    return 1;
  }

  std::printf("Preparing trained artifacts (cached after first run)...\n");
  const exp::SchemeArtifacts artifacts = exp::default_artifacts();

  std::printf("Running randomized trial: %zu schemes x %d sessions over "
              "'%s' paths...\n\n",
              config.schemes.size(), config.sessions_per_scheme,
              config.scenario.family.c_str());
  obs::TraceWriter trace_writer;
  if (!trace_path.empty()) {
    fleet_config.trace = &trace_writer;
  }
  obs::prof_reset();  // scope the wall lanes to the trial itself
  const exp::FleetTrialResult fleet =
      exp::run_fleet_trial(fleet_config, artifacts);
  const exp::TrialResult& trial = fleet.trial;

  Rng rng{1};
  Table table{{"Algorithm", "Time stalled", "Mean SSIM", "SSIM variation",
               "Mean duration", "Streams"}};
  for (const auto& scheme : trial.schemes) {
    if (scheme.considered.empty()) {
      continue;
    }
    const stats::SchemeSummary summary =
        stats::summarize_scheme(scheme.considered, rng);
    double mean_duration_min = 0.0;
    for (const double d : scheme.session_durations_s) {
      mean_duration_min += d / 60.0;
    }
    mean_duration_min /= static_cast<double>(scheme.session_durations_s.size());

    table.add_row({scheme.scheme,
                   format_percent(summary.stall_ratio.point, 2) + " [" +
                       format_percent(summary.stall_ratio.lower, 2) + ", " +
                       format_percent(summary.stall_ratio.upper, 2) + "]",
                   format_fixed(summary.ssim_mean_db, 2) + " dB",
                   format_fixed(summary.ssim_variation_db, 2) + " dB",
                   format_fixed(mean_duration_min, 1) + " min",
                   std::to_string(summary.num_streams)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf(
      "Mind the confidence intervals: with this little data most schemes are\n"
      "statistically indistinguishable — the paper's central warning (§3.4).\n");

  if (!trace_path.empty()) {
    // The engine's virtual-time lanes are already in the writer; add the
    // deterministic concurrency counter lane, then the wall-clock lanes.
    for (const auto& point : fleet.fleet.load.points()) {
      trace_writer.counter(obs::kSimTracePid, "concurrency",
                           point.time_s * 1e6, point.level);
    }
    obs::prof_export_trace(trace_writer);
  }
  // The run is done; an output that cannot be written in full still fails
  // the program, naming the file.
  try {
    if (!trace_path.empty()) {
      write_file(trace_path, [&trace_writer](std::ostream& out) {
        out << trace_writer.str();
      });
      std::printf("wrote %s (%zu trace events)\n", trace_path.c_str(),
                  trace_writer.event_count());
    }
    if (!metrics_path.empty()) {
      write_file(metrics_path, [&fleet](std::ostream& out) {
        out << fleet.metrics.to_json();
      });
      std::printf("wrote %s\n", metrics_path.c_str());
    }
  } catch (const RequirementError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
