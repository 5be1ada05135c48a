#include "util/rng.hh"

#include <cmath>

#include "util/require.hh"

namespace puffer {

uint64_t stable_hash(const std::string_view text) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t mix64(uint64_t value) {
  value += 0x9e3779b97f4a7c15ull;
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ull;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebull;
  return value ^ (value >> 31);
}

Mt19937_64::Mt19937_64(const uint64_t seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateWords; i++) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  constexpr size_t kShift = 156;  // the recurrence's middle offset, m
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  constexpr uint64_t kLower = ~kUpper;
  // Without a branch on y's low bit, so that the loops vectorize.
  const auto twist = [](const uint64_t word, const uint64_t next,
                        const uint64_t far) {
    const uint64_t y = (word & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ull);
  };
  // Words below kStateWords - kShift read words not yet twisted; the rest
  // read words this pass has already twisted, kStateWords - kShift back.
  for (size_t k = 0; k < kStateWords - kShift; k++) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (size_t k = kStateWords - kShift; k < kStateWords - 1; k++) {
    state_[k] = twist(state_[k], state_[k + 1],
                      state_[k + kShift - kStateWords]);
  }
  state_[kStateWords - 1] =
      twist(state_[kStateWords - 1], state_[0], state_[kShift - 1]);
  next_ = 0;
}

Rng::Rng(const uint64_t seed) : seed_(seed), engine_(mix64(seed)) {}

Rng Rng::split(const std::string_view label) const {
  return Rng{mix64(seed_ ^ stable_hash(label))};
}

Rng Rng::split(const uint64_t index) const {
  return Rng{mix64(seed_ + 0x632be59bd9b4e019ull * (index + 1))};
}

double Rng::pareto(const double xm, const double alpha) {
  require(xm > 0.0 && alpha > 0.0, "pareto: xm and alpha must be positive");
  const double u = 1.0 - uniform();  // in (0, 1]
  return xm / std::pow(u, 1.0 / alpha);
}

size_t Rng::categorical(const std::vector<double>& weights) {
  require(!weights.empty(), "categorical: weights must be non-empty");
  double total = 0.0;
  for (const double w : weights) {
    require(w >= 0.0, "categorical: weights must be non-negative");
    total += w;
  }
  require(total > 0.0, "categorical: total weight must be positive");
  double draw = uniform() * total;
  for (size_t i = 0; i < weights.size(); i++) {
    draw -= weights[i];
    if (draw < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;  // numerical edge: return last positive index
}

}  // namespace puffer
