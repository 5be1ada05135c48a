// detlint fixture: R1 true positives for std's Mersenne Twister engines and
// float distributions. The float distributions' algorithms are each
// standard library's own, so their draws differ between libraries; util::Rng
// pins its engine and its draws bit for bit instead. Lines carrying a marker
// comment naming R1 must be flagged. Never compiled.
#include <random>

namespace fixture {

double std_normal(const unsigned long long seed) {
  std::mt19937_64 engine{seed};  // FLAG:R1
  std::normal_distribution<double> normal{0.0, 1.0};  // FLAG:R1
  return normal(engine);
}

double std_uniform(std::mt19937& engine) {  // FLAG:R1
  return std::uniform_real_distribution<double>{0.0, 1.0}(engine);  // FLAG:R1
}

double std_tails(std::mt19937& engine) {  // FLAG:R1
  return std::exponential_distribution<double>{2.0}(engine) +  // FLAG:R1
         std::lognormal_distribution<double>{0.0, 1.0}(engine);  // FLAG:R1
}

}  // namespace fixture
