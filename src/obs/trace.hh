#ifndef PUFFER_OBS_TRACE_HH
#define PUFFER_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace puffer::obs {

/// Trace lanes are grouped by "process": pid 1 carries the deterministic
/// virtual-time lanes (one tid per fleet shard, timestamps in simulated
/// microseconds), pid 2 the wall-clock perf lanes (one tid per worker
/// thread, from obs/prof.hh). Keeping the planes in separate pids keeps
/// them visually separate in Perfetto and lets tests compare the virtual
/// plane's bytes while ignoring the wall plane entirely.
inline constexpr int kSimTracePid = 1;
inline constexpr int kWallTracePid = 2;

/// Builds an `args` object for a trace event: {"key":value,...}. Values are
/// rendered immediately with fixed formats, so identical adds yield
/// identical bytes.
class TraceArgs {
 public:
  TraceArgs& add(std::string_view key, int64_t value);
  TraceArgs& add(std::string_view key, double value);
  TraceArgs& add(std::string_view key, std::string_view value);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Emits Chrome trace-event JSON (the chrome://tracing / Perfetto format:
/// {"traceEvents": [...]}). Events are rendered to bytes at append time
/// with fixed numeric formats and kept in append order, so a writer fed the
/// same calls in the same order produces a byte-identical file — that is
/// the determinism contract for the virtual-time lanes: each fleet shard
/// appends to its own writer (deterministic, virtual-time-ordered) and the
/// engine splices shard writers in ascending shard order after the join.
/// Wall-clock lanes (pid kWallTracePid) carry no such guarantee and are
/// excluded from bitwise comparisons.
class TraceWriter {
 public:
  /// Metadata: name the lane group ("process") `pid`.
  void process_name(int pid, std::string_view name);
  /// Metadata: name lane `tid` within `pid`.
  void thread_name(int pid, int tid, std::string_view name);

  /// A span: `ph:"X"` complete event. Timestamps/durations in microseconds
  /// (virtual µs on the sim plane, wall µs on the perf plane).
  void complete(int pid, int tid, std::string_view name, double ts_us,
                double dur_us, std::string_view args_json = {});
  /// A point event (`ph:"i"`).
  void instant(int pid, int tid, std::string_view name, double ts_us,
               std::string_view args_json = {});
  /// A counter sample (`ph:"C"`): series `name` takes `value` at `ts_us`.
  void counter(int pid, std::string_view name, double ts_us, double value);

  /// Splice `other`'s events onto the end of this writer (moves them out of
  /// `other`). The shard-merge primitive: ascending-shard splices make the
  /// merged virtual plane independent of which shard finished first.
  void append_from(TraceWriter& other);

  [[nodiscard]] size_t event_count() const { return events_.size(); }
  [[nodiscard]] std::string str() const;
  /// Write str() to `path` through util/file_io.hh's write_file; returns
  /// false instead of throwing when the file cannot be written in full.
  bool write_file(const std::string& path) const;

 private:
  void push_event(int pid, int tid, char phase, std::string_view name,
                  const double* ts_us, const double* dur_us,
                  std::string_view args_json);

  std::vector<std::string> events_;  ///< pre-rendered JSON objects
};

}  // namespace puffer::obs

#endif  // PUFFER_OBS_TRACE_HH
