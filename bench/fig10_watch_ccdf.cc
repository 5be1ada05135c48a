// Figure 10: CCDF of total time on the video player per session, by scheme,
// with bootstrap means. The paper: Fugu sessions lasted 10-20% longer on
// average, driven solely by the upper tail (> 2.5 h); the distributions are
// nearly identical until then.

#include <cmath>

#include "bench_common.hh"
#include "stats/bootstrap.hh"
#include "util/table.hh"

int main() {
  using namespace puffer;

  const exp::TrialResult trial = bench::primary_trial();

  // Means with bootstrap CIs (paper quotes e.g. "32.6 +/- 1.1 min").
  Rng rng{10};
  Table means{{"Scheme", "Mean duration (min) [95% CI]", "Sessions",
               "P(> 2.5 h)"}};
  double fugu_mean = 0.0, best_other = 0.0;
  for (const auto& scheme : trial.schemes) {
    std::vector<double> minutes;
    int long_sessions = 0;
    for (const double s : scheme.session_durations_s) {
      minutes.push_back(s / 60.0);
      if (s > 2.5 * 3600.0) {
        long_sessions++;
      }
    }
    const auto ci = stats::bootstrap_mean_ci(minutes, rng, 500);
    means.add_row({scheme.scheme,
                   format_fixed(ci.point, 1) + "  [" +
                       format_fixed(ci.lower, 1) + ", " +
                       format_fixed(ci.upper, 1) + "]",
                   std::to_string(minutes.size()),
                   format_percent(static_cast<double>(long_sessions) /
                                      static_cast<double>(minutes.size()), 2)});
    if (scheme.scheme == "Fugu") {
      fugu_mean = ci.point;
    } else {
      best_other = std::max(best_other, ci.point);
    }
  }
  std::printf("%s\n", means.to_string().c_str());

  // CCDF curves at fixed probe durations.
  std::printf("CCDF P(session duration > t):\n");
  std::printf("%-14s", "t (min)");
  for (const auto& scheme : trial.schemes) {
    std::printf("%-16s", scheme.scheme.c_str());
  }
  std::printf("\n");
  for (const double minutes : {1.0, 5.0, 15.0, 30.0, 60.0, 150.0, 300.0, 600.0}) {
    std::printf("%-14.0f", minutes);
    for (const auto& scheme : trial.schemes) {
      int over = 0;
      for (const double s : scheme.session_durations_s) {
        if (s > minutes * 60.0) {
          over++;
        }
      }
      std::printf("%-16.4f",
                  static_cast<double>(over) /
                      static_cast<double>(scheme.session_durations_s.size()));
    }
    std::printf("\n");
  }

  std::printf("\nShape check vs paper: Fugu's mean time-on-site is the "
              "longest: %s (Fugu %.1f min vs best other %.1f min)\n",
              fugu_mean >= best_other ? "holds" : "VIOLATED", fugu_mean,
              best_other);
  return 0;
}
