// Figure 8: main results. Left: all considered streams; right: streams on
// "slow" network paths (mean delivery rate below
// exp::SchemeResult::kSlowPathMbps, the paper's 6 Mbit/s), which the paper
// says carried 16% of viewing time and 82% of stalls.
//
// Prints, for each panel, every scheme's stall ratio with a bootstrap 95% CI
// and duration-weighted SSIM with its weighted standard error — the exact
// uncertainty machinery of section 3.4.

#include "bench_common.hh"
#include "util/table.hh"

namespace {

void print_panel(const char* title, const puffer::exp::TrialResult& trial,
                 const bool slow_only) {
  using namespace puffer;
  std::printf("%s\n", title);
  Table table{{"Scheme", "Stall ratio [95% CI]", "SSIM (dB) +/- SE",
               "Streams"}};
  Rng rng{8};
  for (const auto& scheme : trial.schemes) {
    const auto streams =
        slow_only ? scheme.slow_paths() : scheme.considered;
    if (streams.empty()) {
      continue;
    }
    const stats::SchemeSummary summary = stats::summarize_scheme(streams, rng);
    table.add_row(
        {scheme.scheme,
         format_percent(summary.stall_ratio.point, 3) + "  [" +
             format_percent(summary.stall_ratio.lower, 3) + ", " +
             format_percent(summary.stall_ratio.upper, 3) + "]",
         format_fixed(summary.ssim_mean_db, 2) + " +/- " +
             format_fixed(summary.ssim_mean_se_db, 2),
         std::to_string(summary.num_streams)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  using namespace puffer;

  const exp::TrialResult trial = bench::primary_trial();

  print_panel("=== Primary experiment (all considered streams) ===", trial,
              false);
  char slow_title[80];
  std::snprintf(slow_title, sizeof slow_title,
                "=== Slow network paths (mean delivery rate < %g Mbit/s) ===",
                exp::SchemeResult::kSlowPathMbps);
  print_panel(slow_title, trial, true);

  // The paper's companion claims about slow paths.
  double all_watch = 0.0, slow_watch = 0.0, all_stall = 0.0, slow_stall = 0.0;
  for (const auto& scheme : trial.schemes) {
    for (const auto& figures : scheme.considered) {
      all_watch += figures.watch_time_s;
      all_stall += figures.stall_time_s;
    }
    for (const auto& figures : scheme.slow_paths()) {
      slow_watch += figures.watch_time_s;
      slow_stall += figures.stall_time_s;
    }
  }
  std::printf("Slow paths carried %.0f%% of viewing time and %.0f%% of "
              "stalls (paper: 16%% and 82%%).\n\n",
              100.0 * slow_watch / all_watch, 100.0 * slow_stall / all_stall);

  // Stall sparsity (section 3.4: only 3% of streams had any stalls).
  int64_t streams = 0, streams_with_stalls = 0;
  for (const auto& scheme : trial.schemes) {
    for (const auto& figures : scheme.considered) {
      streams++;
      if (figures.stall_time_s > 0.0) {
        streams_with_stalls++;
      }
    }
  }
  std::printf("%.1f%% of considered streams had any stall (paper: 3%%).\n",
              100.0 * static_cast<double>(streams_with_stalls) /
                  static_cast<double>(streams));
  return 0;
}
