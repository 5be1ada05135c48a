#ifndef PUFFER_BENCH_BENCH_COMMON_HH
#define PUFFER_BENCH_BENCH_COMMON_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "exp/models.hh"
#include "exp/trial_cache.hh"
#include "stats/summary.hh"
#include "util/file_io.hh"
#include "util/json.hh"
#include "util/require.hh"

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

  /// Write to `path`; throws RequirementError naming the path when the
  /// file cannot be written in full.
  void write_file(const std::string& path) const {
    puffer::write_file(path, [this](std::ostream& out) { out << str(); });
    std::printf("\nwrote %s\n", path.c_str());
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

/// `text` as a positive integer. A non-numeric value, trailing characters
/// or a value below 1 is an error naming `what`, so a typo cannot silently
/// shrink a run.
inline int parse_positive_int(const std::string& text, const std::string& what) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [parsed_to, error] = std::from_chars(text.data(), end, value);
  require(error == std::errc{} && parsed_to == end && value >= 1,
          what + " must be a positive integer, got '" + text + "'");
  return value;
}

/// The positive integer in environment variable `name` (parse_positive_int),
/// or `fallback` when it is unset.
inline int positive_env_int(const char* name, const int fallback) {
  const char* env = std::getenv(name);
  return env == nullptr ? fallback : parse_positive_int(env, name);
}

/// Sessions per scheme for the trial-based benches. Override with
/// PUFFER_BENCH_SESSIONS; the default gives stable orderings in minutes of
/// compute. (The real study ran ~48,000 sessions per scheme over 7 months.)
inline int sessions_per_scheme(const int fallback = 400) {
  return positive_env_int("PUFFER_BENCH_SESSIONS", fallback);
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
