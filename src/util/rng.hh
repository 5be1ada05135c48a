#ifndef PUFFER_UTIL_RNG_HH
#define PUFFER_UTIL_RNG_HH

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <utility>
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
/// min()/max(), so any std algorithm makes the same draws from it as from
/// std's engine.
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

/// A uniform integer in [0, range), range >= 1: libstdc++ 12's
/// uniform_int_distribution over a 64-bit engine (`_S_nd`), which is
/// Lemire's nearly divisionless method with a 128-bit product (Lemire 2019,
/// arXiv 1805.10941). It makes one draw, and more only when the first falls
/// in the biased sliver below 2^64 mod range.
inline uint64_t uniform_below(Mt19937_64& engine, const uint64_t range) {
  __extension__ using Wide = unsigned __int128;
  Wide product = static_cast<Wide>(engine()) * range;
  auto low = static_cast<uint64_t>(product);
  if (low < range) {
    const uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      product = static_cast<Wide>(engine()) * range;
      low = static_cast<uint64_t>(product);
    }
  }
  return static_cast<uint64_t>(product >> 64);
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
/// bernoulli and categorical build on uniform. uniform_int and
/// puffer::shuffle are libstdc++ 12's std::uniform_int_distribution<int64_t>
/// and std::shuffle over the engine, written out the same way. What still
/// depends on the platform is libm: normal, lognormal, exponential and
/// pareto call glibc's log, exp, sqrt and pow, so those draws hold bit for
/// bit only where those functions round the same way.
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
  int64_t uniform_int(const int64_t lo, const int64_t hi) {
    require(lo <= hi, "uniform_int: lo must be <= hi");
    const uint64_t span =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    // The full 64-bit span takes the draw as it is, like libstdc++.
    const uint64_t offset = span == std::numeric_limits<uint64_t>::max()
                                ? engine_()
                                : uniform_below(engine_, span + 1);
    return static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
  }
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

  /// Access to the underlying engine (for seeds).
  Mt19937_64& engine() { return engine_; }

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
  Mt19937_64 engine_;
};

/// Shuffle `items` with libstdc++ 12's std::shuffle draws: one draw picks
/// two swap positions (`__gen_two_uniform_ints`), after one lone swap when
/// the length is even. The draws depend only on the length. (libstdc++
/// draws one position per element once the length squared overflows 64
/// bits; lengths that long are refused.)
template <typename T>
void shuffle(const std::span<T> items, Rng& rng) {
  Mt19937_64& engine = rng.engine();
  const uint64_t n = items.size();
  require(n <= std::numeric_limits<uint32_t>::max(),
          "shuffle: at most 2^32 - 1 items");
  if (n == 0) {
    return;
  }
  uint64_t i = 1;
  if (n % 2 == 0) {
    std::swap(items[i], items[uniform_below(engine, 2)]);
    i++;
  }
  while (i != n) {
    const uint64_t first_range = i + 1;
    const uint64_t second_range = i + 2;
    const uint64_t x = uniform_below(engine, first_range * second_range);
    std::swap(items[i], items[x / second_range]);
    std::swap(items[i + 1], items[x % second_range]);
    i += 2;
  }
}

/// Stable 64-bit hash of a string (FNV-1a), used for seed derivation.
uint64_t stable_hash(std::string_view text);

/// splitmix64 finalizer; good avalanche for combining seeds.
uint64_t mix64(uint64_t value);

}  // namespace puffer

#endif  // PUFFER_UTIL_RNG_HH
