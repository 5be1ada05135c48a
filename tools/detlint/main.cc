/// detlint CLI — walks the given paths (repo-relative), lints every C++
/// source, prints findings, and exits nonzero when any are unsuppressed.
///
/// Usage:
///   detlint [--root DIR] [--config FILE] [--exclude PREFIX]... [-v] PATH...
///
/// PATHs are files or directories relative to --root (default: cwd). Exit
/// 2 on a usage or config error, including an allowlist entry whose path
/// names nothing under --root.
/// Registered in CTest as the `detlint` suite over src/ bench/ tests/
/// examples/ tools/, so the tree stays clean by construction.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "detlint/detlint.hh"

namespace {

namespace fs = std::filesystem;

bool has_cpp_extension(const fs::path& path) {
  static const std::set<std::string> kExtensions = {".cc", ".hh", ".cpp",
                                                    ".hpp", ".h", ".cxx"};
  return kExtensions.count(path.extension().string()) > 0;
}

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error("cannot read " + path.string());
  }
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// `path` rendered repo-relative with forward slashes.
std::string relative_label(const fs::path& root, const fs::path& path) {
  return fs::relative(path, root).generic_string();
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string config_path;
  std::vector<std::string> excludes;
  std::vector<std::string> inputs;
  bool verbose = false;

  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "detlint: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = next_value("--root");
    } else if (arg == "--config") {
      config_path = next_value("--config");
    } else if (arg == "--exclude") {
      excludes.push_back(next_value("--exclude"));
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: detlint [--root DIR] [--config FILE] [--exclude PREFIX]... "
          "[-v] PATH...\n"
          "Determinism lint: rules R1-R6 over C++ sources. Exit 1 on any\n"
          "unsuppressed finding. See tools/detlint/detlint.hh for the rules\n"
          "and the DETLINT-OK suppression syntax.\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "detlint: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "detlint: no paths given (try --help)\n");
    return 2;
  }

  detlint::Config config;
  if (!config_path.empty()) {
    try {
      config = detlint::parse_config(read_file(config_path));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "detlint: %s\n", error.what());
      return 2;
    }
    const std::vector<detlint::AllowEntry> stale =
        detlint::stale_entries(config, root);
    for (const detlint::AllowEntry& entry : stale) {
      std::fprintf(stderr,
                   "detlint: %s:%d: stale allowlist entry '%s %s': no such "
                   "path under %s\n",
                   config_path.c_str(), entry.line, entry.rule.c_str(),
                   entry.path.c_str(), root.string().c_str());
    }
    if (!stale.empty()) {
      return 2;
    }
  }

  // Gather files: directories recurse, deterministic sorted order.
  std::vector<fs::path> files;
  for (const std::string& input : inputs) {
    const fs::path path = root / input;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() && has_cpp_extension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(path);
    } else {
      std::fprintf(stderr, "detlint: no such path: %s\n",
                   path.string().c_str());
      return 2;
    }
  }
  std::vector<std::pair<std::string, fs::path>> labeled;
  labeled.reserve(files.size());
  for (const fs::path& file : files) {
    const std::string label = relative_label(root, file);
    const bool excluded = [&] {
      for (const std::string& prefix : excludes) {
        if (label.rfind(prefix, 0) == 0) {
          return true;
        }
      }
      return false;
    }();
    if (!excluded) {
      labeled.emplace_back(label, file);
    }
  }
  std::sort(labeled.begin(), labeled.end());

  int total_findings = 0;
  int total_suppressed = 0;
  int total_allowlisted = 0;
  for (const auto& [label, file] : labeled) {
    std::string content;
    try {
      content = read_file(file);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "detlint: %s\n", error.what());
      return 2;
    }
    const detlint::FileReport report =
        detlint::lint_file(label, content, config);
    for (const detlint::Finding& finding : report.findings) {
      std::printf("%s\n", finding.str().c_str());
    }
    if (verbose) {
      for (const detlint::Finding& finding : report.suppressed) {
        std::printf("suppressed: %s\n", finding.str().c_str());
      }
    }
    total_findings += static_cast<int>(report.findings.size());
    total_suppressed += static_cast<int>(report.suppressed.size());
    total_allowlisted += report.allowlisted;
  }

  std::printf(
      "detlint: %zu files, %d finding%s (%d suppressed, %d allowlisted)\n",
      labeled.size(), total_findings, total_findings == 1 ? "" : "s",
      total_suppressed, total_allowlisted);
  return total_findings == 0 ? 0 : 1;
}
