// Figure 11: emulation vs the real world.
//   Left:   all schemes evaluated in the mahimahi/FCC-style emulator
//           (paired paths — emulators can replay identical conditions).
//   Middle: the same schemes plus "Emulation-trained Fugu" in the
//           deployment-like world. Training on emulation traces does not
//           generalize: emulation-trained Fugu's stall ratio collapses.
//   Right:  the throughput distributions of the two worlds.

#include "bench_common.hh"
#include "util/table.hh"

namespace {

void print_results(const char* title, const puffer::exp::TrialResult& trial) {
  using namespace puffer;
  std::printf("%s\n", title);
  Table table{{"Scheme", "Stall ratio [95% CI]", "SSIM (dB)", "Streams"}};
  Rng rng{11};
  for (const auto& scheme : trial.schemes) {
    if (scheme.considered.empty()) {
      continue;
    }
    const stats::SchemeSummary summary =
        stats::summarize_scheme(scheme.considered, rng, 400);
    table.add_row({scheme.scheme,
                   format_percent(summary.stall_ratio.point, 3) + "  [" +
                       format_percent(summary.stall_ratio.lower, 3) + ", " +
                       format_percent(summary.stall_ratio.upper, 3) + "]",
                   format_fixed(summary.ssim_mean_db, 2),
                   std::to_string(summary.num_streams)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

double stall_ratio_of(const puffer::exp::TrialResult& trial,
                      const std::string& scheme_name) {
  double stall = 0.0, watch = 0.0;
  for (const auto& figures : trial.result_for(scheme_name).considered) {
    stall += figures.stall_time_s;
    watch += figures.watch_time_s;
  }
  return watch > 0.0 ? stall / watch : 0.0;
}

}  // namespace

int main() {
  using namespace puffer;

  const exp::SchemeArtifacts artifacts = exp::default_artifacts();
  const std::vector<std::string> schemes = {"Fugu",     "MPC-HM",
                                            "RobustMPC-HM", "Pensieve",
                                            "BBA",      "Emulation-trained Fugu"};

  // Left panel: the emulator.
  exp::TrialConfig emulation;
  emulation.schemes = schemes;
  emulation.scenario.family = "fcc-emulation";
  emulation.paired_paths = true;  // emulators can replay exact conditions
  emulation.sessions_per_scheme = bench::sessions_per_scheme(120);
  emulation.seed = 1111;
  const exp::TrialResult emu_trial =
      exp::run_trial_cached(emulation, artifacts, "fig11_emulation");

  // Middle panel: the deployment-like world (true randomized assignment).
  exp::TrialConfig real;
  real.schemes = schemes;
  real.scenario.family = "puffer";
  real.sessions_per_scheme = bench::sessions_per_scheme(200);
  real.seed = 2222;
  const exp::TrialResult real_trial =
      exp::run_trial_cached(real, artifacts, "fig11_real");

  print_results("=== Left: emulation (FCC traces, paired replay) ===",
                emu_trial);
  print_results("=== Middle: deployment-like experiment ===", real_trial);

  // Right panel: throughput distributions experienced by the streams.
  std::printf("=== Right: throughput distribution (mean delivery rate of "
              "considered streams) ===\n");
  auto rates_of = [](const exp::TrialResult& trial) {
    std::vector<double> rates;
    for (const auto& scheme : trial.schemes) {
      for (const auto& figures : scheme.considered) {
        if (figures.mean_delivery_rate_mbps > 0.0) {
          rates.push_back(figures.mean_delivery_rate_mbps);
        }
      }
    }
    return rates;
  };
  const auto emu_rates = rates_of(emu_trial);
  const auto real_rates = rates_of(real_trial);
  std::printf("%-12s %-18s %-18s\n", "percentile", "FCC emulation",
              "Puffer-like paths");
  for (const double q : {0.05, 0.25, 0.50, 0.75, 0.95, 0.99}) {
    std::printf("%-12.2f %-18.2f %-18.2f\n", q,
                stats::quantile(emu_rates, q), stats::quantile(real_rates, q));
  }

  // Shape checks.
  const double emu_fugu = stall_ratio_of(emu_trial, "Emulation-trained Fugu");
  const double emu_insitu = stall_ratio_of(emu_trial, "Fugu");
  const double real_emu_fugu =
      stall_ratio_of(real_trial, "Emulation-trained Fugu");
  const double real_insitu = stall_ratio_of(real_trial, "Fugu");
  std::printf("\nEmulation-trained Fugu stall ratio: %.4f%% in its own "
              "training world vs %.4f%% deployed (in-situ Fugu deployed: "
              "%.4f%%).\n",
              100.0 * emu_fugu, 100.0 * real_emu_fugu, 100.0 * real_insitu);

  // The throughput distributions must differ grossly (the paper's right
  // panel) — that part of the figure reproduces by construction.
  const bool distributions_differ =
      stats::quantile(real_rates, 0.75) > 3.0 * stats::quantile(emu_rates, 0.75);
  std::printf("Shape check: deployment throughput distribution dominates the "
              "emulation one: %s\n",
              distributions_differ ? "holds" : "VIOLATED");

  // Honest reproduction boundary (see EXPERIMENTS.md): the paper's
  // emulation-trained Fugu collapsed in deployment. In this repository both
  // "worlds" run on the same simulator substrate and differ only in trace
  // statistics, so the emulation-trained TTP lands *conservative* rather
  // than catastrophic — evidence for the paper's deeper point that it is
  // the emulator-to-reality gap, not trace statistics alone, that breaks
  // learned components.
  std::printf("Partial reproduction note: emulation-trained Fugu deployed at "
              "%.3f%% stalls vs %.3f%% in situ — degraded-or-equal rather "
              "than the paper's collapse; see EXPERIMENTS.md.\n",
              100.0 * real_emu_fugu, 100.0 * real_insitu);
  (void)emu_insitu;
  return distributions_differ ? 0 : 1;
}
