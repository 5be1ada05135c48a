#ifndef PUFFER_STATS_LOAD_SERIES_HH
#define PUFFER_STATS_LOAD_SERIES_HH

#include <utility>
#include <vector>

namespace puffer::stats {

/// Step-function time series of a concurrency level, built from +1/-1
/// events. The fleet engine records one +1 per session arrival and one -1
/// per session completion, so the finalized series is the simulated
/// counterpart of Figure 2's concurrent-streams-by-hour plot.
///
/// Deltas may be added out of time order (the fleet engine discovers
/// completion times as sessions finish) and from any number of shards
/// (merge_from): finalize() sorts the delta multiset once and folds it by
/// time, so the finalized series is a deterministic function of that
/// multiset regardless of insertion order, shard count, or how runs were
/// partitioned. A series is built, then finalized once, then read.
///
/// Boundary semantics (pinned by tests/test_fleet.cc):
///   * an empty series has no points, peak 0 and time_weighted_mean() 0.0.
///   * time_weighted_mean() of a single-point or zero-span series is the
///     level of the last point: over a degenerate span the step function is
///     the constant it ends at, and that constant is its own mean (the
///     sharded merge hits this whenever a shard saw one instantaneous
///     burst). No division by the zero-length span happens.
class LoadSeries {
 public:
  struct Point {
    double time_s = 0.0;
    int level = 0;  ///< concurrency from this time until the next point
  };

  /// Record a level change of `delta` at `time_s`. Not after finalize().
  void add(double time_s, int delta);

  /// Absorb every delta of the unfinalized `other` into this unfinalized
  /// series, as if each had been add()ed here. Used by the sharded fleet
  /// engine to merge per-shard series: because the finalized series
  /// depends only on the delta multiset, merging shards in any order
  /// reproduces the single-queue series exactly.
  void merge_from(const LoadSeries& other);

  /// Fold the deltas into the step function; deltas at the same time merge
  /// into one point (a session that arrives and completes at the same
  /// instant leaves no trace). Idempotent. Queries below require a
  /// finalized series (or an empty one).
  void finalize();

  [[nodiscard]] bool empty() const {
    return deltas_.empty() && points_.empty();
  }
  [[nodiscard]] const std::vector<Point>& points() const;

  /// Maximum level ever held (0 for an empty series).
  [[nodiscard]] int peak() const;
  /// Level integrated over [first event, last event] divided by that span.
  /// 0 for an empty series; the last level for a degenerate (single-point
  /// or zero-span) series — see the boundary semantics above.
  [[nodiscard]] double time_weighted_mean() const;

 private:
  std::vector<std::pair<double, int>> deltas_;  ///< pending, unsorted
  std::vector<Point> points_;                   ///< folded step function
  bool finalized_ = false;
};

}  // namespace puffer::stats

#endif  // PUFFER_STATS_LOAD_SERIES_HH
