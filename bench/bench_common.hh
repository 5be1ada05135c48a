#ifndef PUFFER_BENCH_BENCH_COMMON_HH
#define PUFFER_BENCH_BENCH_COMMON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "exp/models.hh"
#include "exp/trial_cache.hh"
#include "obs/metrics.hh"
#include "stats/summary.hh"
#include "util/json.hh"

namespace puffer::bench {

/// Standardized emitter for the BENCH_*.json artifacts the benches commit:
/// a flat ordered JSON object of numbers, strings and bools. Keeps every
/// bench's output diff-friendly (fixed decimals, insertion order) without
/// each main() hand-rolling fprintf format strings. Keys and string values
/// are escaped, so arbitrary paths/names stay valid JSON.
class JsonWriter {
 public:
  void field(const std::string& key, const std::string& value) {
    std::string quoted;
    quoted.reserve(value.size() + 2);
    quoted += '"';
    quoted += json_escape(value);
    quoted += '"';
    fields_.emplace_back(key, std::move(quoted));
  }
  void field(const std::string& key, const char* value) {
    field(key, std::string{value});
  }
  void field(const std::string& key, const bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }
  void field(const std::string& key, const int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void field(const std::string& key, const int value) {
    field(key, static_cast<int64_t>(value));
  }
  /// Fixed-point with `decimals` digits (0 emits an integer-looking value).
  /// NaN and infinities (degenerate bench runs: zero-duration timers,
  /// empty series) have no JSON representation — they serialize as null
  /// rather than the bare `nan`/`inf` token snprintf would produce, which
  /// no JSON parser accepts.
  void field(const std::string& key, const double value,
             const int decimals = 3) {
    fields_.emplace_back(key, double_token(value, decimals));
  }
  /// Ordered JSON array of fixed-point numbers (the concurrency-curve
  /// fields); non-finite entries become null like the scalar overload.
  void field(const std::string& key, const std::vector<double>& values,
             const int decimals = 3) {
    std::string body = "[";
    for (size_t i = 0; i < values.size(); i++) {
      body += double_token(values[i], decimals);
      if (i + 1 < values.size()) {
        body += ", ";
      }
    }
    body += "]";
    fields_.emplace_back(key, std::move(body));
  }
  /// Ordered JSON array of integers.
  void field(const std::string& key, const std::vector<int64_t>& values) {
    std::string body = "[";
    for (size_t i = 0; i < values.size(); i++) {
      body += std::to_string(values[i]);
      if (i + 1 < values.size()) {
        body += ", ";
      }
    }
    body += "]";
    fields_.emplace_back(key, std::move(body));
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{\n";
    for (size_t i = 0; i < fields_.size(); i++) {
      out += "  \"";
      out += json_escape(fields_[i].first);
      out += "\": ";
      out += fields_[i].second;
      out += i + 1 < fields_.size() ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
  }

  /// Write to `path`; returns false (after a warning) when the file cannot
  /// be opened, matching the benches' best-effort JSON behavior.
  bool write_file(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    const std::string body = str();
    std::fwrite(body.data(), 1, body.size(), file);
    std::fclose(file);
    std::printf("\nwrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string double_token(const double value, const int decimals) {
    if (!std::isfinite(value)) {
      return "null";
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    return buffer;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Flatten a sim-plane metrics snapshot into `<prefix><name>` fields:
/// counters and gauges emit their value (gauges additionally their
/// high-water as `.peak`), histograms their observation count and bucket
/// array. Field order is the snapshot's registration order, so the JSON
/// stays diff-friendly across runs.
inline void metrics_fields(JsonWriter& json,
                           const obs::MetricSnapshot& snapshot,
                           const std::string& prefix = "metrics.") {
  for (const auto& metric : snapshot.metrics) {
    const std::string key = prefix + metric.name;
    switch (metric.kind) {
      case obs::MetricKind::kCounter:
        json.field(key, metric.value);
        break;
      case obs::MetricKind::kGauge:
        json.field(key, metric.value);
        json.field(key + ".peak", metric.high_water);
        break;
      case obs::MetricKind::kHistogram:
        json.field(key + ".count", metric.count);
        json.field(key + ".buckets", metric.buckets);
        break;
    }
  }
}

/// Sessions per scheme for the trial-based benches. Override with
/// PUFFER_BENCH_SESSIONS; the default gives stable orderings in minutes of
/// compute. (The real study ran ~48,000 sessions per scheme over 7 months.)
inline int sessions_per_scheme(const int fallback = 400) {
  const char* env = std::getenv("PUFFER_BENCH_SESSIONS");
  if (env != nullptr) {
    return std::max(1, std::atoi(env));
  }
  return fallback;
}

/// The shared primary experiment: five schemes, deployment-like paths,
/// blinded random assignment. Cached on disk so the Figure 1/4/8/9/10/A1
/// benches all analyze one simulation run.
inline exp::TrialResult primary_trial() {
  exp::TrialConfig config;
  config.schemes = {"Fugu", "MPC-HM", "RobustMPC-HM", "Pensieve", "BBA"};
  config.sessions_per_scheme = sessions_per_scheme();
  config.seed = 20190119;  // the trial's start date, section 5
  std::printf("[setup] primary experiment: %zu schemes x %d sessions "
              "(cached after first run)\n\n",
              config.schemes.size(), config.sessions_per_scheme);
  return exp::run_trial_cached(config, exp::default_artifacts(), "primary");
}

inline double total_watch_years(const exp::SchemeResult& scheme) {
  double total = 0.0;
  for (const auto& figures : scheme.considered) {
    total += figures.watch_time_s;
  }
  return total / (365.25 * 24 * 3600);
}

}  // namespace puffer::bench

#endif  // PUFFER_BENCH_BENCH_COMMON_HH
