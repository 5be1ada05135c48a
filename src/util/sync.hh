#ifndef PUFFER_UTIL_SYNC_HH
#define PUFFER_UTIL_SYNC_HH

#include <mutex>

#include "util/thread_annotations.hh"

namespace puffer {

/// std::mutex wrapped with clang -Wthread-safety capability attributes.
/// libstdc++'s std::mutex carries none, so the analysis cannot see its
/// acquire/release; this wrapper is what GUARDED_BY members must name.
/// Same cost as std::mutex — the wrapper is two inline calls.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }

 private:
  friend class MutexLock;
  /// The wrapped capability itself; annotated at the wrapper level.
  std::mutex mutex_;  // DETLINT-OK(unannotated-sync): this IS the capability — GUARDS/GUARDED_BY apply to users of the wrapper
};

/// Scoped lock over util::Mutex. Declared SCOPED_CAPABILITY: clang tracks
/// the critical section from construction to destruction.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : lock_{mutex.mutex_} {}
  ~MutexLock() RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
};

}  // namespace puffer

#endif  // PUFFER_UTIL_SYNC_HH
