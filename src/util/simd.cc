#include "util/simd.hh"

#include <atomic>

namespace puffer::util {

namespace {

// DETLINT-OK(global-state): annotated singleton — process-wide dispatch toggle, flipped only in single-threaded test/bench setup
std::atomic<bool> force_portable_{false};

}  // namespace

void set_force_portable(const bool force) {
  force_portable_.store(force, std::memory_order_relaxed);
}

bool force_portable() {
  return force_portable_.load(std::memory_order_relaxed);
}

}  // namespace puffer::util
