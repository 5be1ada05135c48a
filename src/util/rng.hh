#ifndef PUFFER_UTIL_RNG_HH
#define PUFFER_UTIL_RNG_HH

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "util/require.hh"

namespace puffer {

/// The 64-bit Mersenne Twister, bit for bit `std::mt19937_64`: the standard
/// fixes that engine's output sequence ([rand.predef]), and this one must
/// give the same sequence for every seed (tests/test_util.cc checks it
/// against std's engine). It exists for speed. refill() twists all 312 state
/// words in branch-free loops that GCC vectorizes at the baseline ISA, and
/// operator() tempers one word per draw, inline. Like std's engine it keeps
/// only the 312 state words and a position, so copies are as cheap and as
/// large as before. It satisfies UniformRandomBitGenerator with std's
/// min()/max(), so std::shuffle and std::uniform_int_distribution make the
/// same draws from it as from std's engine.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (next_ == kStateWords) [[unlikely]] {
      refill();
    }
    uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr size_t kStateWords = 312;

  /// Twist the whole state and rewind to its first word.
  void refill();

  std::array<uint64_t, kStateWords> state_;
  size_t next_ = kStateWords;
};

/// One 64-bit draw mapped to [0, 1) the way libstdc++'s
/// generate_canonical<double, 53> maps one mt19937_64 draw: bits * 2^-64,
/// except that the draws that round up to 1.0 (bits >= 2^64 - 1024) give
/// the largest double below 1.
inline double canonical_double(const uint64_t bits) {
  const double u = static_cast<double>(bits) * 0x1p-64;
  return u < 1.0 ? u : std::nextafter(1.0, 0.0);
}

/// Deterministic, splittable random-number generator.
///
/// Every stochastic component of the simulator draws from an Rng obtained by
/// splitting a parent Rng with a label, so that (a) experiments are exactly
/// reproducible given a seed, and (b) adding a new consumer of randomness in
/// one module does not perturb the stream seen by other modules.
///
/// The contract on the draws' bits: the engine equals std::mt19937_64
/// (Mt19937_64). uniform, normal, lognormal and exponential are libstdc++
/// 12's expressions for a freshly built std::*_distribution<double> over
/// that engine, written out here because the standard leaves those
/// algorithms to the library; so they are the same on any library. pareto,
/// bernoulli and categorical build on uniform. uniform_int is
/// std::uniform_int_distribution<int64_t> over the engine, so its bits are
/// the library's.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Derive an independent child generator. The same (parent seed, label)
  /// pair always yields the same child stream.
  [[nodiscard]] Rng split(std::string_view label) const;
  [[nodiscard]] Rng split(uint64_t index) const;

  /// Uniform double in [0, 1).
  double uniform() { return canonical_double(engine_()); }
  /// Uniform double in [lo, hi).
  double uniform(const double lo, const double hi) {
    require(lo <= hi, "uniform: lo must be <= hi");
    return uniform() * (hi - lo) + lo;
  }
  /// Uniform integer in [lo, hi] inclusive.
  int64_t uniform_int(int64_t lo, int64_t hi);
  /// Standard normal.
  double normal() { return normal(0.0, 1.0); }
  /// Normal with given mean / stddev: the polar method, keeping only the
  /// second variate of each accepted pair.
  double normal(const double mean, const double stddev) {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
  }
  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(const double mu, const double sigma) {
    return std::exp(sigma * normal() + mu);
  }
  /// Exponential with given rate (mean = 1/rate).
  double exponential(const double rate) {
    require(rate > 0.0, "exponential: rate must be positive");
    return -std::log(1.0 - uniform()) / rate;
  }
  /// Pareto with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha);
  /// Bernoulli trial.
  bool bernoulli(const double p) { return uniform() < p; }
  /// Sample an index from an (unnormalized) weight vector.
  size_t categorical(const std::vector<double>& weights);

  /// Access to the underlying engine (for seeds, std::shuffle and
  /// std::uniform_int_distribution).
  Mt19937_64& engine() { return engine_; }

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
  Mt19937_64 engine_;
};

/// Stable 64-bit hash of a string (FNV-1a), used for seed derivation.
uint64_t stable_hash(std::string_view text);

/// splitmix64 finalizer; good avalanche for combining seeds.
uint64_t mix64(uint64_t value);

}  // namespace puffer

#endif  // PUFFER_UTIL_RNG_HH
