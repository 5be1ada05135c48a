// Scenario sweep: every path family under every scheme.
//
// For each family in net::scenario_families() this runs a seeded randomized
// trial with the five standard schemes and reports stall ratio, SSIM, and
// stream counts — the quickest way to see how each scheme degrades as the
// world changes (satellite RTT, cellular fading, prime-time sag, ...), and a
// smoke test that every family can drive full sessions.
//
// The "trace-replay" family is exercised end-to-end as well: a Mahimahi-style
// trace file is synthesized from the FCC model, saved, and replayed.
//
// PUFFER_BENCH_SESSIONS overrides sessions per scheme (default 60 here).

#include <cstdio>

#include "bench_common.hh"
#include "net/scenario.hh"
#include "util/table.hh"

int main() {
  using namespace puffer;

  const exp::SchemeArtifacts artifacts = exp::default_artifacts();

  // Synthesize a trace file so trace-replay participates in the sweep.
  const std::string trace_path =
      exp::model_cache_dir() + "/scenario_sweep_fcc.trace";
  {
    Rng rng{4242};
    const net::NetworkPath path =
        net::FccTraceModel{}.sample_path(rng, 1800.0);
    net::TraceFile::from_trace(path.trace).save(trace_path);
  }

  const int sessions = bench::sessions_per_scheme(60);
  Rng summary_rng{17};

  for (const auto& family : net::scenario_families()) {
    exp::TrialConfig config;
    config.sessions_per_scheme = sessions;
    config.seed = 20190119;
    config.scenario.family = family;
    if (family == "trace-replay") {
      config.scenario.trace_path = trace_path;
    }

    const std::string_view description = net::scenario_description(family);
    std::printf("=== %s ===\n%.*s\n", family.c_str(),
                static_cast<int>(description.size()), description.data());
    const exp::TrialResult trial =
        exp::run_trial_cached(config, artifacts, "sweep_" + family);

    Table table{{"Scheme", "Stall ratio [95% CI]", "SSIM (dB)",
                 "Startup (s)", "Streams"}};
    for (const auto& scheme : trial.schemes) {
      if (scheme.considered.empty()) {
        continue;
      }
      const stats::SchemeSummary summary =
          stats::summarize_scheme(scheme.considered, summary_rng, 400);
      table.add_row({scheme.scheme,
                     format_percent(summary.stall_ratio.point, 2) + " [" +
                         format_percent(summary.stall_ratio.lower, 2) + ", " +
                         format_percent(summary.stall_ratio.upper, 2) + "]",
                     format_fixed(summary.ssim_mean_db, 2),
                     format_fixed(summary.startup_delay_s, 2),
                     std::to_string(summary.num_streams)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }
  return 0;
}
