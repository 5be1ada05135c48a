#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/json.hh"
#include "util/require.hh"

namespace puffer::obs {

namespace {

/// %.17g round-trips every double and is locale-independent for the values
/// we emit, so the rendered snapshot is byte-identical across runs.
void append_double(std::string& out, const double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void append_int64_array(std::string& out, const std::vector<int64_t>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); i++) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  out += ']';
}

void append_double_array(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); i++) {
    if (i > 0) {
      out += ',';
    }
    append_double(out, values[i]);
  }
  out += ']';
}

}  // namespace

std::string_view to_string(const MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void MetricSnapshot::merge_from(const MetricSnapshot& other) {
  if (other.metrics.empty()) {
    return;
  }
  if (metrics.empty()) {
    metrics = other.metrics;
    return;
  }
  require(metrics.size() == other.metrics.size(),
          "MetricSnapshot::merge_from: schema size mismatch");
  for (size_t i = 0; i < metrics.size(); i++) {
    Metric& mine = metrics[i];
    const Metric& theirs = other.metrics[i];
    require(mine.name == theirs.name && mine.kind == theirs.kind &&
                mine.bounds == theirs.bounds,
            "MetricSnapshot::merge_from: schema mismatch at '" + mine.name +
                "'");
    switch (mine.kind) {
      case MetricKind::kCounter:
        mine.value += theirs.value;
        break;
      case MetricKind::kGauge:
        mine.value = std::max(mine.value, theirs.value);
        mine.high_water = std::max(mine.high_water, theirs.high_water);
        break;
      case MetricKind::kHistogram:
        for (size_t b = 0; b < mine.buckets.size(); b++) {
          mine.buckets[b] += theirs.buckets[b];
        }
        mine.count += theirs.count;
        mine.min = std::min(mine.min, theirs.min);
        mine.max = std::max(mine.max, theirs.max);
        break;
    }
  }
}

void MetricSnapshot::append_from(const MetricSnapshot& other) {
  metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
}

MetricSnapshot MetricSnapshot::deterministic_view(
    const bool include_shard_local) const {
  MetricSnapshot view;
  for (const Metric& metric : metrics) {
    if (metric.scheduling_dependent) {
      continue;
    }
    if (metric.shard_local && !include_shard_local) {
      continue;
    }
    view.metrics.push_back(metric);
  }
  return view;
}

const MetricSnapshot::Metric* MetricSnapshot::find(
    const std::string_view name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

std::string MetricSnapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  for (size_t i = 0; i < metrics.size(); i++) {
    const Metric& m = metrics[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"name\":\"";
    append_json_escaped(out, m.name);
    out += "\",\"kind\":\"";
    out += to_string(m.kind);
    out += "\",\"shard_local\":";
    out += m.shard_local ? "true" : "false";
    out += ",\"scheduling_dependent\":";
    out += m.scheduling_dependent ? "true" : "false";
    switch (m.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":" + std::to_string(m.value);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":" + std::to_string(m.value);
        out += ",\"high_water\":" + std::to_string(m.high_water);
        break;
      case MetricKind::kHistogram:
        out += ",\"bounds\":";
        append_double_array(out, m.bounds);
        out += ",\"buckets\":";
        append_int64_array(out, m.buckets);
        out += ",\"count\":" + std::to_string(m.count);
        out += ",\"min\":";
        append_double(out, m.min);
        out += ",\"max\":";
        append_double(out, m.max);
        break;
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

MetricRegistry::Id MetricRegistry::register_metric(std::string name,
                                                   const MetricKind kind,
                                                   const Options options) {
  MetricSnapshot::Metric metric;
  metric.name = std::move(name);
  metric.kind = kind;
  metric.shard_local = options.shard_local;
  metric.scheduling_dependent = options.scheduling_dependent;
  data_.metrics.push_back(std::move(metric));
  return data_.metrics.size() - 1;
}

MetricRegistry::Id MetricRegistry::counter(std::string name,
                                           const Options options) {
  return register_metric(std::move(name), MetricKind::kCounter, options);
}

MetricRegistry::Id MetricRegistry::gauge(std::string name,
                                         const Options options) {
  return register_metric(std::move(name), MetricKind::kGauge, options);
}

MetricRegistry::Id MetricRegistry::histogram(std::string name,
                                             std::vector<double> bucket_bounds,
                                             const Options options) {
  require(std::is_sorted(bucket_bounds.begin(), bucket_bounds.end()),
          "MetricRegistry: histogram bounds must be ascending");
  const Id id =
      register_metric(std::move(name), MetricKind::kHistogram, options);
  MetricSnapshot::Metric& metric = data_.metrics[id];
  metric.bounds = std::move(bucket_bounds);
  metric.buckets.assign(metric.bounds.size() + 1, 0);
  return id;
}

void MetricRegistry::add(const Id id, const int64_t delta) {
  MetricSnapshot::Metric& metric = data_.metrics[id];
  require(metric.kind == MetricKind::kCounter,
          "MetricRegistry::add: not a counter");
  metric.value += delta;
}

void MetricRegistry::set(const Id id, const int64_t value) {
  MetricSnapshot::Metric& metric = data_.metrics[id];
  require(metric.kind == MetricKind::kGauge,
          "MetricRegistry::set: not a gauge");
  metric.value = value;
  metric.high_water = std::max(metric.high_water, value);
}

void MetricRegistry::set_max(const Id id, const int64_t value) {
  MetricSnapshot::Metric& metric = data_.metrics[id];
  require(metric.kind == MetricKind::kGauge,
          "MetricRegistry::set_max: not a gauge");
  metric.value = std::max(metric.value, value);
  metric.high_water = std::max(metric.high_water, metric.value);
}

void MetricRegistry::observe(const Id id, const double value) {
  MetricSnapshot::Metric& metric = data_.metrics[id];
  require(metric.kind == MetricKind::kHistogram,
          "MetricRegistry::observe: not a histogram");
  const auto bucket = static_cast<size_t>(
      std::lower_bound(metric.bounds.begin(), metric.bounds.end(), value) -
      metric.bounds.begin());
  metric.buckets[bucket]++;
  metric.count++;
  metric.min = std::min(metric.min, value);
  metric.max = std::max(metric.max, value);
}

}  // namespace puffer::obs
