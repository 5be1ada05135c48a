// Golden-regression harness: every scenario family runs a small seeded trial
// whose summary statistics are pinned, digit for digit, to the values below.
//
// The trial engine guarantees bit-identical results for a given config —
// across serial/parallel execution and across refactors — so these goldens
// catch silent behaviour changes anywhere in the stack: path generators,
// the TCP/link simulator, ABR schemes, session accounting, or the parallel
// merge. A legitimate behaviour change (e.g. retuning a model) must update
// the table: run with PUFFER_UPDATE_GOLDEN=1 and paste the printed rows.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "exp/fleet_trial.hh"
#include "exp/trial.hh"
#include "fugu/fugu.hh"
#include "net/scenario.hh"
#include "net/trace_file.hh"
#include "util/rng.hh"

namespace puffer::exp {
namespace {

struct GoldenRow {
  const char* family;
  int64_t considered;      ///< streams surviving Figure A1 exclusion
  double ssim_mean_db;     ///< mean over considered streams
  double stall_ratio;      ///< total stall time / total watch time
  double startup_delay_s;  ///< mean over considered streams
};

// Pinned with PUFFER_UPDATE_GOLDEN=1 at the introduction of the scenario
// engine. Each row aggregates one 2-scheme x 6-session RCT (seed 20190119)
// over the named family, run on three shards and workers.
//
// Regenerated when the contention families landed, for two reasons: three
// new rows (cell-shared, edge-contention, wifi-home), and two
// congestion-control bugfixes that legitimately moved every pre-existing
// family's numbers — BBR's min-RTT estimate now seeds from the first RTT
// sample and expires through a 10 s window instead of a permanent 0.100 s
// floor (high-RTT families like satellite gain the most: the old floor
// under-sized cwnd by ~6x there), and the drop-tail link's queue-delay
// estimate now uses the same mid-step capacity sample as the drain and is
// capped at the outage horizon instead of a 1 byte/s floor (trims phantom
// startup delay and stall mass everywhere outages or sharp dips occur).
const std::vector<GoldenRow> kGolden = {
    // clang-format off
    {"cell-shared", 21, 14.775255874071471, 0.054845132219229334, 0.87108185959933893},
    {"cellular", 19, 14.682238272977292, 0.066598201220210124, 0.87811203952988137},
    {"diurnal", 18, 15.836895426488091, 0.00023257649301439452, 0.53211889213643415},
    {"edge-contention", 16, 16.633737779323404, 0.0012180524670664555, 0.48111177082077961},
    {"fcc-emulation", 18, 14.162589087943285, 0.0052588868488099606, 0.69899696432509517},
    {"markov-cs2p", 18, 14.849635019519058, 0.00026120653977208228, 0.58210771222838076},
    {"puffer", 16, 15.158058862258137, 0.0040576666111808001, 0.58191292061067346},
    {"satellite", 17, 16.138400285743899, 0.0048698386182720477, 0.79316795096055781},
    {"trace-replay", 19, 14.70931448677737, 0.011251132199831889, 0.59447421106504295},
    {"wifi-home", 18, 16.754398628277571, 0, 0.44647877603467584},
    {"wifi-oscillating", 16, 16.910485510393709, 0, 0.46461546751322852},
    // clang-format on
};

/// The trace-replay golden needs a trace file; synthesize it deterministically
/// (fixed seed, fixed duration) so the golden values are stable.
std::string golden_trace_path() {
  static const std::string path = [] {
    const std::string file = ::testing::TempDir() + "/golden_fcc.trace";
    Rng rng{4242};
    const net::NetworkPath source =
        net::FccTraceModel{}.sample_path(rng, 1800.0);
    net::TraceFile::from_trace(source.trace).save(file);
    return file;
  }();
  return path;
}

struct Aggregates {
  int64_t considered = 0;
  double ssim_mean_db = 0.0;
  double stall_ratio = 0.0;
  double startup_delay_s = 0.0;
};

TrialConfig golden_config(const std::string& family) {
  TrialConfig config;
  config.schemes = {"BBA", "MPC-HM"};
  config.sessions_per_scheme = 6;
  config.seed = 20190119;
  config.num_threads = 3;  // pin to three shards on three workers
  config.scenario = net::ScenarioSpec{family};
  if (family == "trace-replay") {
    config.scenario.trace_path = golden_trace_path();
  }
  return config;
}

Aggregates aggregate(const TrialResult& trial) {
  Aggregates agg;
  double ssim_sum = 0.0, startup_sum = 0.0, stall_sum = 0.0, watch_sum = 0.0;
  for (const auto& scheme : trial.schemes) {
    for (const auto& figures : scheme.considered) {
      agg.considered++;
      ssim_sum += figures.ssim_mean_db;
      startup_sum += figures.startup_delay_s;
      stall_sum += figures.stall_time_s;
      watch_sum += figures.watch_time_s;
    }
  }
  if (agg.considered > 0) {
    agg.ssim_mean_db = ssim_sum / static_cast<double>(agg.considered);
    agg.startup_delay_s = startup_sum / static_cast<double>(agg.considered);
  }
  if (watch_sum > 0.0) {
    agg.stall_ratio = stall_sum / watch_sum;
  }
  return agg;
}

Aggregates run_family(const std::string& family) {
  return aggregate(run_trial(golden_config(family), SchemeArtifacts{}));
}

bool update_mode() {
  return std::getenv("PUFFER_UPDATE_GOLDEN") != nullptr;
}

void check_pinned(const double actual, const double golden,
                  const char* family, const char* what) {
  // Tight enough that any change to the simulation shows, loose enough to
  // absorb printf round-tripping of the pinned literals.
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(golden));
  EXPECT_NEAR(actual, golden, tolerance) << family << ": " << what;
}

TEST(GoldenTrial, EveryFamilyMatchesPinnedStatistics) {
  const auto names = net::scenario_families();

  if (update_mode()) {
    // Regeneration walks the scenario table, not the (possibly stale) golden
    // table, so a new family gets a row without hand-authoring one.
    std::printf("// paste into kGolden:\n");
    for (const auto& name : names) {
      const Aggregates agg = run_family(name);
      std::printf("    {\"%s\", %lld, %.17g, %.17g, %.17g},\n", name.c_str(),
                  static_cast<long long>(agg.considered), agg.ssim_mean_db,
                  agg.stall_ratio, agg.startup_delay_s);
    }
    return;
  }

  // The golden table must cover exactly the scenario families (and stay
  // sorted, so update diffs are readable).
  ASSERT_EQ(names.size(), kGolden.size())
      << "scenario families changed: regenerate with PUFFER_UPDATE_GOLDEN=1";
  for (size_t i = 0; i < kGolden.size(); i++) {
    const GoldenRow& row = kGolden[i];
    EXPECT_EQ(names[i], row.family) << "golden table out of sync";
    const Aggregates agg = run_family(row.family);

    EXPECT_EQ(agg.considered, row.considered) << row.family << ": considered";
    check_pinned(agg.ssim_mean_db, row.ssim_mean_db, row.family, "ssim");
    check_pinned(agg.stall_ratio, row.stall_ratio, row.family, "stall ratio");
    check_pinned(agg.startup_delay_s, row.startup_delay_s, row.family,
                 "startup delay");
  }
}

// Fugu: the golden trial's RCT (seed 20190119, three shards and workers) on
// `puffer` paths with Fugu as the only scheme, driven by a fixed-seed
// untrained TTP. BBA and MPC-HM never plan over TTP-bin outcome times, so
// this row is what pins a Fugu decision — the stochastic MPC fold over the
// 21 bin midpoints — digit for digit.
const GoldenRow kFuguGolden = {
    // clang-format off
    "puffer", 9, 17.065099207498545, 0.033670645862487004, 2.1209452397575372
    // clang-format on
};

TEST(GoldenTrial, FuguMatchesPinnedStatistics) {
  TrialConfig config = golden_config(kFuguGolden.family);
  config.schemes = {"Fugu"};
  const auto model =
      std::make_shared<fugu::TtpModel>(fugu::TtpConfig{}, 20190119);
  const SchemeFactory factory =
      [&model](const std::string& name) -> std::unique_ptr<abr::AbrAlgorithm> {
    return fugu::make_fugu(model, name);
  };
  const Aggregates agg = aggregate(run_trial(config, factory));

  if (update_mode()) {
    std::printf("// paste into kFuguGolden:\n"
                "    \"%s\", %lld, %.17g, %.17g, %.17g\n",
                kFuguGolden.family, static_cast<long long>(agg.considered),
                agg.ssim_mean_db, agg.stall_ratio, agg.startup_delay_s);
    return;
  }
  EXPECT_EQ(agg.considered, kFuguGolden.considered) << "Fugu: considered";
  check_pinned(agg.ssim_mean_db, kFuguGolden.ssim_mean_db, "Fugu", "ssim");
  check_pinned(agg.stall_ratio, kFuguGolden.stall_ratio, "Fugu", "stall ratio");
  check_pinned(agg.startup_delay_s, kFuguGolden.startup_delay_s, "Fugu",
               "startup delay");
}

// Contention groups: the golden trial's 2-scheme x 6-session RCT (seed
// 20190119) through run_fleet_trial, in groups of four sessions behind one
// shared bottleneck per topology preset, on three shards and workers.
// Pins the aggregates above plus every group's Jain fairness index, so a
// change to the group life cycle (session accounting, lockstep stepping,
// arrival/wake boundaries) shows digit for digit.
struct GroupedGoldenRow {
  const char* topology;
  const char* family;
  int64_t considered;
  double ssim_mean_db;
  double stall_ratio;
  double startup_delay_s;
  std::vector<double> fairness;  ///< one Jain index per group
};

const std::vector<GroupedGoldenRow> kGroupedGolden = {
    // clang-format off
    {"edge", "edge-contention", 18, 16.748239159676928, 0, 0.46318701517916849, {0.49802308339441048, 0.25811525413536218, 0.25622043602286826}},
    {"tower", "cell-shared", 16, 15.994865641230051, 0.02341940686906464, 0.70364835104768586, {0.28458376592148238, 0.25743342458949692, 0.26833416950640138}},
    {"wifi", "wifi-home", 20, 16.819795984970813, 0, 0.48775266933183065, {0.50058574655339727, 0.25958448983346827, 0.2564633194325413}},
    // clang-format on
};

constexpr int kGoldenGroupSize = 4;

FleetTrialResult run_grouped(const char* topology, const char* family) {
  FleetTrialConfig config;
  config.trial = golden_config(family);
  config.arrivals.kind = "poisson";
  config.arrivals.rate_per_s = 0.5;  // members overlap inside each group
  config.num_shards = 3;
  config.contention = make_contention_spec(topology, kGoldenGroupSize);
  return run_fleet_trial(config, SchemeArtifacts{});
}

TEST(GoldenTrial, ContentionGroupsMatchPinnedStatistics) {
  if (update_mode()) {
    std::printf("// paste into kGroupedGolden:\n");
    for (const auto& [topology, family] :
         {std::pair{"edge", "edge-contention"},
          std::pair{"tower", "cell-shared"}, std::pair{"wifi", "wifi-home"}}) {
      const FleetTrialResult run = run_grouped(topology, family);
      const Aggregates agg = aggregate(run.trial);
      std::printf("    {\"%s\", \"%s\", %lld, %.17g, %.17g, %.17g, {", topology,
                  family, static_cast<long long>(agg.considered),
                  agg.ssim_mean_db, agg.stall_ratio, agg.startup_delay_s);
      for (size_t g = 0; g < run.group_fairness.size(); g++) {
        std::printf("%s%.17g", g == 0 ? "" : ", ", run.group_fairness[g]);
      }
      std::printf("}},\n");
    }
    return;
  }

  ASSERT_EQ(kGroupedGolden.size(), 3u);
  for (const GroupedGoldenRow& row : kGroupedGolden) {
    const FleetTrialResult run = run_grouped(row.topology, row.family);
    const Aggregates agg = aggregate(run.trial);
    // %.17g round-trips a double exactly, so these compare bit for bit.
    EXPECT_EQ(agg.considered, row.considered) << row.family << ": considered";
    EXPECT_EQ(agg.ssim_mean_db, row.ssim_mean_db) << row.family << ": ssim";
    EXPECT_EQ(agg.stall_ratio, row.stall_ratio) << row.family << ": stall";
    EXPECT_EQ(agg.startup_delay_s, row.startup_delay_s)
        << row.family << ": startup delay";
    EXPECT_EQ(run.group_fairness, row.fairness) << row.family << ": fairness";
  }
}

TEST(GoldenTrial, GoldenRunIsThreadCountInvariant) {
  // The pinned values came from a 3-worker run; one thread must agree
  // exactly (the fleet engine's core guarantee, re-checked here on the
  // golden config so the goldens stay meaningful on any machine).
  TrialConfig parallel_config;
  parallel_config.schemes = {"BBA", "MPC-HM"};
  parallel_config.sessions_per_scheme = 6;
  parallel_config.seed = 20190119;
  parallel_config.scenario = net::ScenarioSpec{"cellular"};
  parallel_config.num_threads = 3;
  TrialConfig serial_config = parallel_config;
  serial_config.num_threads = 1;

  const SchemeArtifacts none;
  const TrialResult parallel = run_trial(parallel_config, none);
  const TrialResult serial = run_trial(serial_config, none);
  ASSERT_EQ(parallel.schemes.size(), serial.schemes.size());
  for (size_t s = 0; s < parallel.schemes.size(); s++) {
    ASSERT_EQ(parallel.schemes[s].considered.size(),
              serial.schemes[s].considered.size());
    for (size_t i = 0; i < parallel.schemes[s].considered.size(); i++) {
      EXPECT_DOUBLE_EQ(parallel.schemes[s].considered[i].ssim_mean_db,
                       serial.schemes[s].considered[i].ssim_mean_db);
      EXPECT_DOUBLE_EQ(parallel.schemes[s].considered[i].stall_time_s,
                       serial.schemes[s].considered[i].stall_time_s);
    }
  }
}

}  // namespace
}  // namespace puffer::exp
