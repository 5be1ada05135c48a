// detlint fixture: R1 true positives for std's integer draws. The
// algorithms of std::uniform_int_distribution, std::shuffle and std::sample
// are each standard library's own, so their draws differ between libraries;
// Rng::uniform_int and puffer::shuffle write libstdc++'s out. Lines carrying
// a marker comment naming R1 must be flagged. Never compiled.
#include <algorithm>
#include <random>
#include <span>
#include <vector>

namespace fixture {

long long std_int(puffer::Mt19937_64& engine) {
  return std::uniform_int_distribution<long long>{0, 9}(engine);  // FLAG:R1
}

void std_shuffles(std::vector<int>& items, puffer::Rng& rng) {
  std::shuffle(items.begin(), items.end(), rng.engine());  // FLAG:R1
  std::ranges::shuffle(items, rng.engine());  // FLAG:R1
}

std::vector<int> std_samples(const std::vector<int>& items, puffer::Rng& rng) {
  std::vector<int> out;
  std::sample(items.begin(), items.end(), std::back_inserter(out), 3,  // FLAG:R1
              rng.engine());
  return out;
}

// The written-out draws, other code's shuffle/sample and names that merely
// contain the words stay clean.
void clean(std::vector<int>& items, puffer::Rng& rng, Deck& deck) {
  puffer::shuffle(std::span{items}, rng);
  shuffle_epochs(items, rng);
  deck.shuffle();
  deck.sample(3);
  (void)rng.uniform_int(0, 9);
}

}  // namespace fixture
