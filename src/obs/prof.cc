#include "obs/prof.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#if PUFFER_PROFILING
#include <array>
#include <chrono>
#endif

#include "util/sync.hh"
#include "util/thread_annotations.hh"

namespace puffer::obs {

namespace {

// DETLINT-OK(global-state): the perf plane's runtime gate — read with
// relaxed loads on the hot path, flipped only by bench/test setup code
std::atomic<bool> enabled_{true};

#if PUFFER_PROFILING

struct ScopeStats {
  const char* name = nullptr;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t min_ns = std::numeric_limits<int64_t>::max();
  int64_t max_ns = 0;
  std::array<int64_t, kProfNumBounds + 1> buckets{};
};

struct RawEvent {
  const char* name = nullptr;
  int64_t start_ns = 0;  ///< relative to the registry epoch
  int64_t dur_ns = 0;
};

/// One thread's profiling state. Owned (and written) exclusively by that
/// thread while it lives; moved into the registry's retired list by the
/// thread_local destructor at thread exit, which is what makes
/// prof_snapshot() data-race-free without per-sample locking.
struct ThreadData {
  int ordinal = -1;
  int64_t epoch_ns = 0;
  std::vector<ScopeStats> scopes;  ///< linear scan by literal name
  std::vector<RawEvent> events;
  int64_t dropped_events = 0;
};

struct Registry {
  Mutex mutex GUARDS(retired, retired_events, next_ordinal, epoch_ns);
  std::vector<ThreadData> retired GUARDED_BY(mutex);
  size_t retired_events GUARDED_BY(mutex) = 0;  ///< <= kProfMaxRetiredEvents
  int next_ordinal GUARDED_BY(mutex) = 0;
  int64_t epoch_ns GUARDED_BY(mutex) = -1;  ///< first registration's clock
};

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// DETLINT-OK(global-state): the perf-plane thread registry — mutex-guarded,
// touched at thread birth/death and snapshot time only, never by sim code
Registry& registry() {
  static Registry instance;
  return instance;
}

/// Registers on construction, retires the accumulated data on destruction
/// (i.e. at thread exit, before any joiner can observe the thread as done).
struct ThreadSlot {
  ThreadData data;

  ThreadSlot() {
    Registry& reg = registry();
    const MutexLock lock{reg.mutex};
    data.ordinal = reg.next_ordinal++;
    if (reg.epoch_ns < 0) {
      reg.epoch_ns = now_ns();
    }
    data.epoch_ns = reg.epoch_ns;
  }

  ~ThreadSlot() {
    Registry& reg = registry();
    const MutexLock lock{reg.mutex};
    // Keep the earliest events up to the process-wide cap.
    const size_t room = kProfMaxRetiredEvents - reg.retired_events;
    if (data.events.size() > room) {
      data.dropped_events += static_cast<int64_t>(data.events.size() - room);
      data.events.resize(room);
    }
    reg.retired_events += data.events.size();
    reg.retired.push_back(std::move(data));
  }
};

ThreadData& thread_data() {
  thread_local ThreadSlot slot;
  return slot.data;
}

ScopeStats& stats_for(ThreadData& data, const char* const name) {
  for (ScopeStats& scope : data.scopes) {
    if (scope.name == name || std::strcmp(scope.name, name) == 0) {
      return scope;
    }
  }
  data.scopes.emplace_back();
  data.scopes.back().name = name;
  return data.scopes.back();
}

size_t bucket_of(const int64_t dur_ns) {
  if (dur_ns <= 256) {
    return 0;
  }
  const auto width =
      std::bit_width(static_cast<uint64_t>(dur_ns - 1));  // >= 9 here
  return std::min<size_t>(static_cast<size_t>(width - 8), kProfNumBounds);
}

ProfThreadSnapshot copy_thread(const ThreadData& data) {
  ProfThreadSnapshot snap;
  snap.ordinal = data.ordinal;
  snap.dropped_events = data.dropped_events;
  snap.scopes.reserve(data.scopes.size());
  for (const ScopeStats& scope : data.scopes) {
    ProfScopeStats out;
    out.name = scope.name;
    out.count = scope.count;
    out.total_ns = scope.total_ns;
    out.min_ns = scope.count > 0 ? scope.min_ns : 0;
    out.max_ns = scope.max_ns;
    out.buckets.assign(scope.buckets.begin(), scope.buckets.end());
    snap.scopes.push_back(std::move(out));
  }
  snap.events.reserve(data.events.size());
  for (const RawEvent& event : data.events) {
    snap.events.push_back(
        ProfEventCopy{event.name, event.start_ns, event.dur_ns});
  }
  return snap;
}

#endif  // PUFFER_PROFILING

}  // namespace

#if PUFFER_PROFILING

ProfScope::ProfScope(const char* const name)
    : name_(name),
      start_ns_(enabled_.load(std::memory_order_relaxed) ? now_ns() : -1) {}

ProfScope::~ProfScope() {
  if (start_ns_ < 0) {
    return;
  }
  const int64_t dur_ns = std::max<int64_t>(0, now_ns() - start_ns_);
  ThreadData& data = thread_data();
  ScopeStats& scope = stats_for(data, name_);
  scope.count++;
  scope.total_ns += dur_ns;
  scope.min_ns = std::min(scope.min_ns, dur_ns);
  scope.max_ns = std::max(scope.max_ns, dur_ns);
  scope.buckets[bucket_of(dur_ns)]++;
  if (data.events.size() < kProfMaxEventsPerThread) {
    data.events.push_back(RawEvent{name_, start_ns_ - data.epoch_ns, dur_ns});
  } else {
    data.dropped_events++;
  }
}

#endif  // PUFFER_PROFILING

void set_prof_enabled(const bool enabled) {
  enabled_.store(enabled && kProfilingCompiled, std::memory_order_relaxed);
}

std::vector<ProfScopeStats> ProfSnapshot::merged() const {
  std::vector<ProfScopeStats> out;
  for (const ProfThreadSnapshot& thread : threads) {
    for (const ProfScopeStats& scope : thread.scopes) {
      ProfScopeStats* into = nullptr;
      for (ProfScopeStats& existing : out) {
        if (existing.name == scope.name) {
          into = &existing;
          break;
        }
      }
      if (into == nullptr) {
        out.push_back(scope);
        continue;
      }
      into->count += scope.count;
      into->total_ns += scope.total_ns;
      // Per-thread entries only exist once a scope ran, so count >= 1 on
      // both sides and min is well-defined.
      into->min_ns = std::min(into->min_ns, scope.min_ns);
      into->max_ns = std::max(into->max_ns, scope.max_ns);
      for (size_t b = 0; b < into->buckets.size(); b++) {
        into->buckets[b] += scope.buckets[b];
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ProfScopeStats& a, const ProfScopeStats& b) {
              return a.name < b.name;
            });
  return out;
}

const ProfScopeStats* ProfSnapshot::find(
    const std::vector<ProfScopeStats>& merged_scopes,
    const std::string_view name) {
  for (const ProfScopeStats& scope : merged_scopes) {
    if (scope.name == name) {
      return &scope;
    }
  }
  return nullptr;
}

ProfSnapshot prof_snapshot() {
  ProfSnapshot snap;
#if PUFFER_PROFILING
  // Register/read the calling thread first: thread_data() may take the
  // registry lock on first use.
  const ThreadData& own = thread_data();
  Registry& reg = registry();
  {
    const MutexLock lock{reg.mutex};
    for (const ThreadData& thread : reg.retired) {
      if (!thread.scopes.empty() || !thread.events.empty()) {
        snap.threads.push_back(copy_thread(thread));
      }
    }
  }
  if (!own.scopes.empty() || !own.events.empty()) {
    snap.threads.push_back(copy_thread(own));
  }
  std::sort(snap.threads.begin(), snap.threads.end(),
            [](const ProfThreadSnapshot& a, const ProfThreadSnapshot& b) {
              return a.ordinal < b.ordinal;
            });
#endif
  return snap;
}

void prof_reset() {
#if PUFFER_PROFILING
  ThreadData& own = thread_data();
  own.scopes.clear();
  own.events.clear();
  own.dropped_events = 0;
  Registry& reg = registry();
  const MutexLock lock{reg.mutex};
  reg.retired.clear();
  reg.retired_events = 0;
#endif
}

void prof_export_trace(TraceWriter& trace) {
  const ProfSnapshot snap = prof_snapshot();
  if (snap.threads.empty()) {
    return;
  }
  trace.process_name(kWallTracePid, "wall time (perf)");
  for (const ProfThreadSnapshot& thread : snap.threads) {
    if (thread.events.empty()) {
      continue;  // every event dropped at a cap: no lane to name
    }
    trace.thread_name(kWallTracePid, thread.ordinal,
                      "worker " + std::to_string(thread.ordinal));
    for (const ProfEventCopy& event : thread.events) {
      trace.complete(kWallTracePid, thread.ordinal, event.name,
                     static_cast<double>(event.start_ns) / 1000.0,
                     static_cast<double>(event.dur_ns) / 1000.0);
    }
  }
}

}  // namespace puffer::obs
