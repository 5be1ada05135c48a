// End-to-end measurement: set-up (artifact construction plus one untimed
// warm-up run) repeated kSetups times, then timed repetitions alternating
// between T threads and 1 thread until the requested seconds are spent.
// Every run is audited bitwise against the first warm-up.

#include <sys/resource.h>

#include <filesystem>
#include <functional>
#include <optional>

#include "bench.hh"
#include "obs/prof.hh"

namespace puffer::bench {

namespace {

constexpr int kSetups = 3;
constexpr size_t kMinRepetitions = 3;
/// Stop starting repetitions after this long even if the minimum count is
/// not reached, so a run on a much slower machine still exits in time.
constexpr double kMaxMeasureSeconds = 120.0;

/// One timed repetition: runs the workload at T threads (`parallel`) or at
/// one thread, stores its wall time, and returns the chunks it completed.
using Repetition = std::function<double(bool parallel, double& wall_s)>;

struct Throughput {
  std::vector<double> parallel;  ///< chunks/s per T-thread repetition
  std::vector<double> serial;    ///< chunks/s per 1-thread repetition
};

/// Give each mode about half the measured time: the next repetition goes to
/// the mode that has used less so far. The seed picks which mode runs first.
Throughput measure(const Options& opts, const Repetition& repetition) {
  Throughput rates;
  double parallel_s = 0.0;
  double serial_s = 0.0;
  const bool parallel_first = opts.seed % 2 == 0;
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = seconds_since(start);
    const bool minimum = rates.parallel.size() >= kMinRepetitions &&
                         rates.serial.size() >= kMinRepetitions;
    if ((minimum && elapsed >= opts.seconds) || elapsed >= kMaxMeasureSeconds) {
      break;
    }
    const bool parallel = parallel_s < serial_s ||
                          (parallel_s == serial_s && parallel_first);
    double wall_s = 0.0;
    const double chunks = repetition(parallel, wall_s);
    (parallel ? rates.parallel : rates.serial).push_back(chunks / wall_s);
    (parallel ? parallel_s : serial_s) += wall_s;
  }
  return rates;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_spread(Report& report, const std::string& name,
                const std::vector<double>& values) {
  char text[128];
  std::snprintf(text, sizeof(text), "n=%zu q1=%.1f median=%.1f q3=%.1f",
                values.size(), quantile(values, 0.25), median(values),
                quantile(values, 0.75));
  report.info.emplace_back(name, text);
}

void finish(Report& report, const Throughput& rates,
            const std::vector<double>& setups) {
  report.add("chunks_per_s", median(rates.parallel), "chunks/s");
  report.add("chunks_per_s_1t", median(rates.serial), "chunks/s");
  report.add("setup_s", median(setups), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  add_spread(report, "chunks_per_s.repetitions", rates.parallel);
  add_spread(report, "chunks_per_s_1t.repetitions", rates.serial);
}

Report time_fleet(const Workload& workload, const Options& opts) {
  const exp::FleetTrialConfig parallel =
      on_threads(workload.fleet, opts.threads);
  const exp::FleetTrialConfig serial = on_threads(workload.fleet, 1);

  Report report;
  std::vector<double> setups;
  exp::SchemeFactory factory;
  exp::TrialResult reference;
  for (int i = 0; i < kSetups; i++) {
    const auto start = Clock::now();
    factory = fleet_factory(fleet_model());
    exp::FleetTrialResult warmup = exp::run_fleet_trial(parallel, factory);
    setups.push_back(seconds_since(start));
    if (i == 0) {
      reference = std::move(warmup.trial);
    } else {
      audit_trial(reference, warmup.trial, report);
    }
  }

  const Throughput rates =
      measure(opts, [&](const bool use_parallel, double& wall_s) {
        const auto start = Clock::now();
        const exp::FleetTrialResult run =
            exp::run_fleet_trial(use_parallel ? parallel : serial, factory);
        wall_s = seconds_since(start);
        audit_trial(reference, run.trial, report);
        return static_cast<double>(run.fleet.decisions);
      });
  finish(report, rates, setups);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(figures_digest(reference)));
  report.info.emplace_back("figures_digest", digest);
  return report;
}

/// Set-up runs the campaign's day 0 from a fresh directory; every timed
/// repetition resumes a copy of that checkpoint and runs day 1, the steady
/// state of the loop (warm start from a trained model, a two-day window).
Report time_campaign(const Workload& workload, const Options& opts) {
  const std::string root = work_dir("campaign");
  const std::string day0_dir = root + "/day0";
  const std::string run_dir = root + "/run";
  const auto config_for = [&](const int threads, const std::string& dir) {
    exp::CampaignConfig config = workload.campaign;
    config.num_threads = threads;
    config.checkpoint_dir = dir;
    return config;
  };

  Report report;
  const auto audit_day = [&report](const exp::DayStats& expected,
                                   const exp::DayStats& got) {
    report.attempted++;
    report.failed += expected == got ? 0 : 1;
  };

  std::vector<double> setups;
  exp::DayStats day0;
  for (int i = 0; i < kSetups; i++) {
    std::filesystem::remove_all(root);
    const auto start = Clock::now();
    exp::Campaign campaign{config_for(opts.threads, day0_dir)};
    const exp::CampaignResult result = campaign.run(1);
    setups.push_back(seconds_since(start));
    if (i == 0) {
      day0 = result.days.front();
    } else {
      audit_day(day0, result.days.front());
    }
  }

  std::optional<exp::DayStats> day1;
  const Throughput rates =
      measure(opts, [&](const bool use_parallel, double& wall_s) {
        std::filesystem::remove_all(run_dir);
        std::filesystem::copy(day0_dir, run_dir);
        exp::Campaign campaign{
            config_for(use_parallel ? opts.threads : 1, run_dir)};
        const auto start = Clock::now();
        const exp::CampaignResult result = campaign.run(1);
        wall_s = seconds_since(start);
        audit_day(day0, result.days.front());
        if (day1.has_value()) {
          audit_day(*day1, result.days.back());
        } else {
          day1 = result.days.back();
        }
        return static_cast<double>(result.days.back().telemetry_chunks);
      });
  std::filesystem::remove_all(root);
  finish(report, rates, setups);
  report.info.emplace_back("day1_telemetry_chunks",
                           std::to_string(day1->telemetry_chunks));
  return report;
}

}  // namespace

Report run_timed(const Workload& workload, const Options& opts) {
  obs::set_prof_enabled(false);
  return workload.kind == WorkloadKind::kFleet ? time_fleet(workload, opts)
                                               : time_campaign(workload, opts);
}

}  // namespace puffer::bench
