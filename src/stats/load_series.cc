#include "stats/load_series.hh"

#include <algorithm>

#include "util/require.hh"

namespace puffer::stats {

void LoadSeries::add(const double time_s, const int delta) {
  require(!finalized_, "LoadSeries: add() after finalize()");
  deltas_.emplace_back(time_s, delta);
}

void LoadSeries::merge_from(const LoadSeries& other) {
  require(&other != this, "LoadSeries: cannot merge a series into itself");
  require(!finalized_ && !other.finalized_,
          "LoadSeries: merge_from() needs two unfinalized series");
  deltas_.insert(deltas_.end(), other.deltas_.begin(), other.deltas_.end());
}

void LoadSeries::finalize() {
  if (finalized_) {
    return;
  }
  // Pairs order by time, then delta: a deterministic total order, though
  // equal-time entries merge by sum, so their relative order cannot matter.
  std::sort(deltas_.begin(), deltas_.end());
  int level = 0;
  for (size_t i = 0; i < deltas_.size();) {
    const double t = deltas_[i].first;
    const int before = level;
    do {
      level += deltas_[i++].second;
    } while (i < deltas_.size() && deltas_[i].first == t);
    if (level != before) {  // merged deltas that cancel leave no step
      points_.push_back({t, level});
    }
  }
  deltas_.clear();
  deltas_.shrink_to_fit();
  finalized_ = true;
}

const std::vector<LoadSeries::Point>& LoadSeries::points() const {
  require(finalized_ || empty(), "LoadSeries: finalize() first");
  return points_;
}

int LoadSeries::peak() const {
  int peak = 0;
  for (const Point& p : points()) {
    peak = std::max(peak, p.level);
  }
  return peak;
}

double LoadSeries::time_weighted_mean() const {
  const std::vector<Point>& pts = points();
  if (pts.empty()) {
    return 0.0;
  }
  const double span = pts.back().time_s - pts.front().time_s;
  if (span <= 0.0) {
    // Degenerate span (a single point: same-time deltas always merge):
    // the step function is the constant it ends at, which is its own mean.
    return static_cast<double>(pts.back().level);
  }
  // Left to right over the steps, so the sum's bits are a function of the
  // points alone.
  double integral = 0.0;
  for (size_t i = 1; i < pts.size(); i++) {
    integral += static_cast<double>(pts[i - 1].level) *
                (pts[i].time_s - pts[i - 1].time_s);
  }
  return integral / span;
}

}  // namespace puffer::stats
