#include "net/scenario.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/require.hh"

namespace puffer::net {

namespace {

struct Family {
  std::string_view name;
  std::string_view description;
  std::unique_ptr<PathGenerator> (*make)(const ScenarioSpec& spec);
};

template <typename Model>
std::unique_ptr<PathGenerator> make_default(const ScenarioSpec&) {
  return std::make_unique<Model>();
}

// Contention families (edge-contention, cell-shared, wifi-home) supply
// access paths tuned for shared-bottleneck fleet trials
// (FleetTrialConfig.contention / exp::make_contention_spec): both the member
// access paths and the extra sample that becomes the group's shared link.
std::unique_ptr<PathGenerator> make_cell_shared(const ScenarioSpec&) {
  return std::make_unique<CellularPathModel>(
      std::vector<double>{0.5, 3.0, 12.0, 36.0});
}

std::unique_ptr<PathGenerator> make_edge_contention(const ScenarioSpec&) {
  return std::make_unique<PufferPathModel>(28.0, 0.40, 1.0 / 1800.0);
}

std::unique_ptr<PathGenerator> make_trace_replay(const ScenarioSpec& spec) {
  require(!spec.trace_path.empty(),
          "trace-replay scenario requires spec.trace_path");
  return std::make_unique<TraceReplayGenerator>(
      TraceFile::load(spec.trace_path));
}

std::unique_ptr<PathGenerator> make_wifi_home(const ScenarioSpec&) {
  return std::make_unique<WifiPathModel>(60.0, 0.75);
}

constexpr std::array<Family, 11> kFamilies = {{
    {"cell-shared",
     "LTE sector whose users share tower backhaul: cellular state chain "
     "with a faster top state; pair with contention topology 'tower' "
     "(deep FIFO at 0.55x the aggregate, mixed BBR/CUBIC)",
     make_cell_shared},
    {"cellular",
     "Markov-modulated LTE channel: deep-fade/congested/nominal/excellent "
     "states with fast lognormal fading and variable RTT",
     make_default<CellularPathModel>},
    {"diurnal",
     "shared access link with a 24-hour capacity sinusoid: prime-time "
     "capacity sags to ~30% of the off-peak rate",
     make_default<DiurnalPathModel>},
    {"edge-contention",
     "wired access behind a shared CDN-edge uplink: faster, steadier "
     "puffer-style paths with rare outages; pair with contention topology "
     "'edge' (FIFO bottleneck at 0.7x the aggregate)",
     make_edge_contention},
    {"fcc-emulation",
     "stationary FCC-broadband traces behind a 40 ms mahimahi shell, capped "
     "at 12 Mbit/s (the Pensieve emulation world, Figure 11 left)",
     make_default<FccTraceModel>},
    {"markov-cs2p",
     "CS2P-style discrete throughput states with sticky transitions "
     "(Figure 2a's contrast; Puffer never observed this structure)",
     make_default<MarkovTraceModel>},
    {"puffer",
     "heavy-tailed deployment-like paths: lognormal base rates, OU drift, "
     "regime shifts, rare outages (the Puffer study's wild Internet)",
     make_default<PufferPathModel>},
    {"satellite",
     "GEO satellite access: ~600 ms propagation RTT, moderate capacity, "
     "long rain fades",
     make_default<SatellitePathModel>},
    {"trace-replay",
     "replays the Mahimahi packet-delivery trace at spec.trace_path behind "
     "a fixed 40 ms shell, looping the trace to session length",
     make_trace_replay},
    {"wifi-home",
     "home Wi-Fi with several streams behind one AP: strong good-state "
     "rate, long good duty cycle; pair with contention topology 'wifi' "
     "(per-flow fair queuing at 0.8x the aggregate)",
     make_wifi_home},
    {"wifi-oscillating",
     "last-hop Wi-Fi oscillating between good and degraded rates on a "
     "per-path duty cycle, with rare deep fades",
     make_default<WifiPathModel>},
}};
static_assert(std::ranges::is_sorted(kFamilies, {}, &Family::name),
              "kFamilies must stay sorted by name");

/// The row for `name`; an unknown name is an error listing the known ones.
const Family& find_family(const std::string_view name,
                          const std::string& context) {
  const auto it = std::ranges::find(kFamilies, name, &Family::name);
  if (it == kFamilies.end()) {
    std::string known;
    for (const Family& family : kFamilies) {
      known += (known.empty() ? "" : ", ") + std::string{family.name};
    }
    throw RequirementError(context + ": unknown scenario family '" +
                           std::string{name} + "'; known families: " + known);
  }
  return *it;
}

}  // namespace

uint64_t ScenarioSpec::fingerprint() const {
  uint64_t hash = stable_hash(key());
  if (!trace_path.empty()) {
    std::ifstream in{trace_path, std::ios::binary};
    std::ostringstream contents;
    contents << in.rdbuf();
    hash = mix64(hash ^ stable_hash(contents.str()));
  }
  return hash;
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  require(!text.empty(),
          "ScenarioSpec::parse: empty scenario string (expected "
          "\"family\" or \"family:argument\")");
  const size_t colon = text.find(':');
  ScenarioSpec spec =
      colon == std::string::npos
          ? ScenarioSpec{text}
          : ScenarioSpec{text.substr(0, colon), text.substr(colon + 1)};
  require(!spec.family.empty(), "ScenarioSpec::parse: '" + text +
                                    "' has an empty family before the ':'");
  static_cast<void>(
      find_family(spec.family, "ScenarioSpec::parse('" + text + "')"));
  return spec;
}

bool is_scenario_family(const std::string_view name) {
  return std::ranges::find(kFamilies, name, &Family::name) != kFamilies.end();
}

std::vector<std::string> scenario_families() {
  std::vector<std::string> names;
  for (const Family& family : kFamilies) {
    names.emplace_back(family.name);
  }
  return names;
}

std::string_view scenario_description(const std::string_view name) {
  return find_family(name, "scenario_description").description;
}

std::unique_ptr<PathGenerator> make_path_generator(const ScenarioSpec& spec) {
  return find_family(spec.family, "make_path_generator").make(spec);
}

static_assert(TraceReplayGenerator::kMinRttS > 0.0,
              "TraceReplayGenerator: RTT must be positive");

TraceReplayGenerator::TraceReplayGenerator(const TraceFile& file)
    : binned_(file.to_trace(kBinDurationS)) {}

NetworkPath TraceReplayGenerator::sample_path(Rng& rng,
                                              const double duration_s) const {
  static_cast<void>(rng);  // replay is deterministic, mahimahi-style
  // Loop the trace end-to-end until it covers the session, as mm-link does.
  const auto& base = binned_.rates();
  const auto repeats = static_cast<size_t>(std::max(
      1.0, std::ceil(duration_s / binned_.duration())));
  std::vector<double> rates;
  rates.reserve(repeats * base.size());
  for (size_t r = 0; r < repeats; r++) {
    rates.insert(rates.end(), base.begin(), base.end());
  }
  return NetworkPath{ThroughputTrace{std::move(rates),
                                     binned_.segment_duration()},
                     kMinRttS};
}

}  // namespace puffer::net
