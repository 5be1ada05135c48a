#include "sim/faults.hh"

#include <algorithm>
#include <sstream>

#include "util/require.hh"

namespace puffer::sim {

static_assert(std::ranges::is_sorted(kFaultFamilies),
              "kFaultFamilies must stay sorted");

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

}  // namespace puffer::sim
