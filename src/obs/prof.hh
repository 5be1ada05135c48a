#ifndef PUFFER_OBS_PROF_HH
#define PUFFER_OBS_PROF_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hh"

// Plane-2 (perf-plane) profiling: RAII wall-clock scopes feeding per-thread
// histograms and a bounded per-thread event log. This is the ONE place the
// tree is allowed to read a clock (detlint R1 allowlists src/obs/prof.*
// only): call sites construct `obs::ProfScope scope{"name"};` and never see
// a time source, so nondeterminism stays structurally contained — nothing
// in the sim plane, results, or bitwise audits can observe it.
//
// Configure with -DPUFFER_PROFILING=OFF to compile every scope to a no-op
// (the query API below still links and returns empty data). With profiling
// compiled in, set_prof_enabled(false) skips the clock reads at runtime so
// one binary can measure its own overhead (the repo benchmark's traced runs
// report it as trace.overhead_ratio).

namespace puffer::obs {

#if !defined(PUFFER_PROFILING)
#define PUFFER_PROFILING 1
#endif

#if PUFFER_PROFILING

inline constexpr bool kProfilingCompiled = true;

/// Times the enclosing scope on the calling thread. `name` must be a
/// string literal (or otherwise outlive every snapshot/export call).
class ProfScope {
 public:
  explicit ProfScope(const char* name);
  ~ProfScope();
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  const char* name_;
  int64_t start_ns_;  ///< -1 when profiling was disabled at entry
};

#else

inline constexpr bool kProfilingCompiled = false;

class ProfScope {
 public:
  explicit ProfScope(const char* /*name*/) {}
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;
};

#endif  // PUFFER_PROFILING

/// Runtime gate (on by default). Disabling skips the clock reads; data
/// already recorded stays until prof_reset().
void set_prof_enabled(bool enabled);

/// Event-log caps: a thread keeps at most kProfMaxEventsPerThread events,
/// and the retired threads together at most kProfMaxRetiredEvents (every
/// ThreadPool::run spawns fresh threads, so a long run retires many).
/// Events past a cap are counted in dropped_events; histograms keep
/// counting.
inline constexpr size_t kProfMaxEventsPerThread = size_t{1} << 16;
inline constexpr size_t kProfMaxRetiredEvents = size_t{1} << 18;

/// Power-of-two duration buckets: bucket i counts durations
/// <= 256ns << i, for i in [0, kProfNumBounds); one overflow bucket after.
inline constexpr int kProfNumBounds = 24;

struct ProfScopeStats {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t min_ns = 0;
  int64_t max_ns = 0;
  std::vector<int64_t> buckets;  ///< kProfNumBounds + 1 entries
};

struct ProfEventCopy {
  std::string name;
  int64_t start_ns = 0;  ///< relative to the process-wide profiling epoch
  int64_t dur_ns = 0;
};

struct ProfThreadSnapshot {
  int ordinal = 0;  ///< registration order of the thread (wall lane id)
  std::vector<ProfScopeStats> scopes;
  std::vector<ProfEventCopy> events;  ///< bounded; overflow is counted
  int64_t dropped_events = 0;
};

struct ProfSnapshot {
  std::vector<ProfThreadSnapshot> threads;  ///< ascending ordinal
  /// Per-scope stats folded across threads, sorted by name (thread
  /// ordinals are scheduling-dependent; the name order is not).
  [[nodiscard]] std::vector<ProfScopeStats> merged() const;
  /// merged() entry by name; nullptr when the scope never ran.
  [[nodiscard]] static const ProfScopeStats* find(
      const std::vector<ProfScopeStats>& merged_scopes, std::string_view name);
};

/// Stats from every *retired* worker thread plus the calling thread. Live
/// sibling threads are invisible until they exit (their state is
/// thread-confined — that is what makes this data-race-free); the fleet
/// engine joins its pools before returning, so post-run snapshots see all
/// workers.
[[nodiscard]] ProfSnapshot prof_snapshot();

/// Drop retired-thread data and the calling thread's data (other live
/// threads keep theirs). Benches call this between measured sections.
void prof_reset();

/// Emit wall-time lanes (pid kWallTracePid, one tid per thread ordinal) from
/// the current snapshot into `trace`. Nondeterministic by nature — lanes
/// land in ordinal order but their content is wall-clock truth.
void prof_export_trace(TraceWriter& trace);

}  // namespace puffer::obs

#endif  // PUFFER_OBS_PROF_HH
