#include "sim/faults.hh"

#include <algorithm>
#include <sstream>

#include "util/require.hh"

namespace puffer::sim {

static_assert(std::ranges::is_sorted(kFaultFamilies),
              "kFaultFamilies must stay sorted");

namespace {

/// The whole of `field` as a double. An empty, non-numeric or partly
/// numeric field ("0.5x", "30s") is an error naming the offending token.
double parse_number(const std::string_view field, const std::string_view what,
                    const std::string_view token) {
  const std::string text{field};
  size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  require(consumed > 0 && consumed == text.size(),
          "parse_fault_plan: bad " + std::string{what} + " in '" +
              std::string{token} + "'");
  return value;
}

}  // namespace

void FaultPlan::add(const std::string_view family, const double probability,
                    const double duration_s) {
  if (std::ranges::find(kFaultFamilies, family) == kFaultFamilies.end()) {
    std::string known;
    for (const std::string_view name : kFaultFamilies) {
      known += (known.empty() ? "" : ", ") + std::string{name};
    }
    throw RequirementError("FaultPlan::add: unknown fault family '" +
                           std::string{family} +
                           "'; known families: " + known);
  }
  require(probability >= 0.0 && probability <= 1.0,
          "FaultPlan::add: probability must be in [0, 1]");
  require(duration_s >= 0.0, "FaultPlan::add: duration_s must be >= 0");
  for (FaultSpec& spec : specs) {
    if (spec.family == family) {
      spec.probability = probability;
      spec.duration_s = duration_s;
      return;
    }
  }
  specs.push_back(FaultSpec{std::string{family}, probability, duration_s});
}

const FaultSpec* FaultPlan::find(const std::string_view family) const {
  for (const FaultSpec& spec : specs) {
    if (spec.family == family) {
      return &spec;
    }
  }
  return nullptr;
}

bool FaultPlan::has(const std::string_view family) const {
  return find(family) != nullptr;
}

double FaultPlan::probability(const std::string_view family) const {
  if (!enabled) {
    return 0.0;
  }
  const FaultSpec* spec = find(family);
  return spec == nullptr ? 0.0 : spec->probability;
}

double FaultPlan::duration_s(const std::string_view family) const {
  const FaultSpec* spec = find(family);
  return spec == nullptr ? 0.0 : spec->duration_s;
}

Rng FaultPlan::rng(const std::string_view family) const {
  return Rng{seed}.split(family);
}

bool FaultPlan::draw(const std::string_view family,
                     const std::initializer_list<uint64_t> keys) const {
  const double p = probability(family);
  if (p <= 0.0) {
    return false;
  }
  Rng stream = rng(family);
  for (const uint64_t key : keys) {
    stream = stream.split(key);
  }
  return stream.bernoulli(p);
}

std::string FaultPlan::fingerprint_key() const {
  std::ostringstream canon;
  canon << "faults-v1;seed=" << seed;
  for (const FaultSpec& spec : specs) {
    canon << ';' << spec.family << '=' << spec.probability << '@'
          << spec.duration_s;
  }
  return canon.str();
}

FaultPlan parse_fault_plan(const std::string_view text, const uint64_t seed) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  require(!text.empty(), "parse_fault_plan: empty fault spec");
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    const std::string_view token = text.substr(
        start, comma == std::string_view::npos ? std::string_view::npos
                                               : comma - start);
    const size_t eq = token.find('=');
    require(eq != std::string_view::npos && eq > 0 && eq + 1 < token.size(),
            "parse_fault_plan: want family=prob[:duration], got '" +
                std::string{token} + "'");
    const std::string_view family = token.substr(0, eq);
    std::string_view value = token.substr(eq + 1);
    double duration_s = 0.0;
    const size_t colon = value.find(':');
    if (colon != std::string_view::npos) {
      duration_s = parse_number(value.substr(colon + 1), "duration", token);
      value = value.substr(0, colon);
    }
    plan.add(family, parse_number(value, "probability", token), duration_s);
    if (comma == std::string_view::npos) {
      break;
    }
    start = comma + 1;
  }
  return plan;
}

}  // namespace puffer::sim
