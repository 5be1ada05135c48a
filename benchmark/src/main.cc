// puffer_bench: the repository benchmark (see benchmark/README.md).
//
//   puffer_bench --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
//                [--out DIR] [--commit SHA]
//
// Prints every metric as "workload metric value unit", then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --out, also writes DIR/<workload>.json (or .traced.json) with the metrics,
// informational fields and a provenance block. Exits 1 when any audited
// unit differs bitwise, 2 on a usage error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hh"
#include "obs/prof.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace {

using namespace puffer::bench;

constexpr int kMaxThreads = 4;

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(const double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string metrics_json(const Report& report) {
  std::string out = "{";
  for (size_t i = 0; i < report.metrics.size(); i++) {
    const Metric& metric = report.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + escape(metric.name) +
           "\": {\"value\": " + number(metric.value) + ", \"unit\": \"" +
           escape(metric.unit) + "\"}";
  }
  return out + "}";
}

std::string compiler() {
#if defined(__clang__)
  return std::string{"clang "} + __VERSION__;
#elif defined(__GNUC__)
  return std::string{"gcc "} + __VERSION__;
#else
  return "unknown";
#endif
}

std::string provenance_json(const Workload& workload, const Options& opts) {
  char fingerprint[24];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(
                    puffer::stable_hash(workload.description)));
  return std::string{"{"} + "\"commit\": \"" + escape(opts.commit) +
         "\", \"compiler\": \"" + escape(compiler()) +
         "\", \"build_type\": \"" + PUFFER_BENCH_BUILD_TYPE +
         "\", \"puffer_profiling\": " +
         (puffer::obs::kProfilingCompiled ? "true" : "false") +
         ", \"nproc\": " +
         std::to_string(puffer::ThreadPool::hardware_threads()) +
         ", \"threads\": " + std::to_string(opts.threads) +
         ", \"seed\": " + std::to_string(opts.seed) +
         ", \"seconds\": " + number(opts.seconds) +
         ", \"population_seed\": " + std::to_string(kPopulationSeed) +
         ", \"config_fingerprint\": \"" + fingerprint +
         "\", \"config\": \"" + escape(workload.description) + "\"}";
}

void write_results(const Workload& workload, const Options& opts,
                   const Report& report, const bool correct) {
  std::filesystem::create_directories(opts.out_dir);
  const std::string path = opts.out_dir + "/" + workload.name +
                           (opts.trace ? ".traced.json" : ".json");
  std::string info = "{";
  for (size_t i = 0; i < report.info.size(); i++) {
    info += (i == 0 ? "\"" : ", \"") + escape(report.info[i].first) +
            "\": \"" + escape(report.info[i].second) + "\"";
  }
  info += "}";
  std::ofstream out{path, std::ios::trunc};
  out << "{\"workload\": \"" << escape(workload.name)
      << "\", \"trace\": " << (opts.trace ? "true" : "false")
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed
      << ",\n \"metrics\": " << metrics_json(report)
      << ",\n \"info\": " << info
      << ",\n \"provenance\": " << provenance_json(workload, opts) << "}\n";
  if (!out) {
    std::fprintf(stderr, "puffer_bench: cannot write %s\n", path.c_str());
  }
}

int usage() {
  std::string names;
  for (const auto& name : workload_names()) {
    names += (names.empty() ? "" : "|") + name;
  }
  std::fprintf(stderr,
               "usage: puffer_bench --workload %s [--seed N] [--seconds S] "
               "[--trace [0|1]] [--out DIR] [--commit SHA]\n",
               names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      opts.trace = true;
      if (has_value && (std::string{argv[i + 1]} == "0" ||
                        std::string{argv[i + 1]} == "1")) {
        opts.trace = std::string{argv[++i]} == "1";
      }
    } else if (arg == "--out" && has_value) {
      opts.out_dir = argv[++i];
    } else if (arg == "--commit" && has_value) {
      opts.commit = argv[++i];
    } else {
      return usage();
    }
  }
  if (opts.workload.empty() || !(opts.seconds > 0.0)) {
    return usage();
  }
  opts.threads = std::min(kMaxThreads, puffer::ThreadPool::hardware_threads());

  try {
    const Workload workload = make_workload(opts.workload);
    const Report report =
        opts.trace ? run_traced(workload, opts) : run_timed(workload, opts);
    bool finite = true;
    for (const Metric& metric : report.metrics) {
      finite = finite && std::isfinite(metric.value);
      std::printf("%s %s %.6g %s\n", workload.name.c_str(),
                  metric.name.c_str(), metric.value, metric.unit.c_str());
    }
    for (const auto& [key, value] : report.info) {
      std::printf("# %s %s %s\n", workload.name.c_str(), key.c_str(),
                  value.c_str());
    }
    const bool correct = finite && report.failed == 0 && report.attempted > 0;
    if (!opts.out_dir.empty()) {
      write_results(workload, opts, report, correct);
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.failed),
                metrics_json(report).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "puffer_bench: %s\n", error.what());
    return 1;
  }
}
