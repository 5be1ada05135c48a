#ifndef PUFFER_TOOLS_DETLINT_HH
#define PUFFER_TOOLS_DETLINT_HH

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

/// detlint — determinism lint for the puffer reproduction.
///
/// Every result this repo produces rests on a bitwise-determinism contract
/// (batched==scalar, fleet==sequential, N-thread==1-thread). detlint is a
/// standalone static-analysis pass (own scanner, no libclang) that enforces
/// the source-level half of that contract as machine-checked policy:
///
///   R1 nondet-source     no nondeterministic sources (rand, random_device,
///                        time(), *_clock::now, getenv, ...) and no std
///                        mt19937/mt19937_64 engines, distributions,
///                        std::shuffle or std::sample (their draws are
///                        the library's)
///                        outside src/util/rng.* and allowlisted
///                        I/O/timing files
///   R2 ordered-sink      no iteration over std::unordered_{map,set}
///                        (hash-order is result-affecting); suppress with
///                        a reason where order provably cannot escape
///   R3 pointer-key       no std::map/std::set (or unordered) keyed on raw
///                        pointers — address order differs run to run
///   R4 fp-reduce         no floating-point reductions via std::accumulate/
///                        std::reduce outside the src/nn/ kernel layer
///                        (fixed-order loops only)
///   R5 global-state      no mutable namespace-scope state outside
///                        annotated singletons
///   R6 unannotated-sync  every std::mutex / std::atomic class member must
///                        carry a thread-safety annotation
///                        (GUARDED_BY / GUARDS / ATOMIC_SAFE / ...)
///
/// Suppression syntax (reason string is mandatory):
///   code();  // DETLINT-OK(ordered-sink): keys drained into sorted vector
/// A suppression on its own line applies to the next line; trailing a
/// statement it applies to that line. Tags may be rule ids ("R2") or rule
/// names ("ordered-sink").
///
/// File-level exemptions come from an allowlist config (detlint.conf):
///   R1 bench/nn_kernels.cc    wall-clock timing of the bench itself
/// Each entry names a rule, a repo-relative file (or "dir/" prefix) that
/// must exist, and a mandatory reason.
namespace detlint {

struct Finding {
  std::string file;     ///< repo-relative path
  int line = 0;         ///< 1-based
  std::string rule;     ///< "R1".."R6", or "SUPP" for malformed suppressions
  std::string tag;      ///< stable rule name, e.g. "nondet-source"
  std::string message;  ///< human-readable explanation

  [[nodiscard]] std::string str() const;
};

/// One allowlist entry parsed from the config file.
struct AllowEntry {
  std::string rule;    ///< "R1".."R6" (normalized from id or tag name)
  std::string path;    ///< exact file, or prefix when it ends with '/'
  std::string reason;  ///< mandatory free text
  int line = 0;        ///< 1-based line in the config text
};

struct Config {
  std::vector<AllowEntry> allow;

  /// True when `rule` is allowlisted for repo-relative `path`.
  [[nodiscard]] bool allows(std::string_view rule, std::string_view path) const;
};

/// Parse a detlint.conf body. Lines: `<rule> <path> <reason...>`; '#'
/// comments and blank lines ignored. Throws std::runtime_error on a
/// malformed line (unknown rule, missing path or reason).
Config parse_config(const std::string& text);

/// Allowlist entries whose path names nothing under `root` (an exact entry
/// needs that file, a "dir/" entry that directory), in config order. Such
/// an entry is stale — the code it exempted moved or was deleted — and the
/// CLI rejects the config.
std::vector<AllowEntry> stale_entries(const Config& config,
                                      const std::filesystem::path& root);

struct FileReport {
  std::vector<Finding> findings;    ///< unsuppressed — these fail the build
  std::vector<Finding> suppressed;  ///< matched a DETLINT-OK with a reason
  int allowlisted = 0;              ///< dropped by a config AllowEntry
};

/// Lint one file's contents. `path` must be repo-relative (it drives the
/// built-in exemptions: R1 never fires in src/util/rng.*, R4 never fires
/// under src/nn/).
FileReport lint_file(const std::string& path, const std::string& content,
                     const Config& config);

/// Normalize "R1"/"nondet-source" etc. to a rule id; empty if unknown.
std::string normalize_rule(std::string_view rule_or_tag);

/// Rule id -> stable tag name ("R1" -> "nondet-source").
std::string rule_tag(std::string_view rule);

}  // namespace detlint

#endif  // PUFFER_TOOLS_DETLINT_HH
