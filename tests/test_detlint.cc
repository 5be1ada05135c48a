// Tests for tools/detlint: every fixture under tests/detlint_fixtures/
// carries `FLAG:<rule>` markers on the lines the linter must flag; the
// suite parses those markers back out and requires the findings to match
// exactly (same lines, same rule ids, nothing extra). Suppression,
// allowlist and built-in-exemption behavior is covered with the same
// fixture contents relabeled onto sanctioned paths.

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "detlint/detlint.hh"

namespace {

std::string read_fixture(const std::string& name) {
  const std::string path =
      std::string{PUFFER_DETLINT_FIXTURES_DIR} + "/" + name;
  std::ifstream in{path};
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

using LineRule = std::pair<int, std::string>;

/// Expected findings, parsed from `FLAG:<rule>` markers in the fixture.
std::vector<LineRule> parse_markers(const std::string& content) {
  std::vector<LineRule> expected;
  std::istringstream stream{content};
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    line_no++;
    size_t pos = 0;
    while ((pos = line.find("FLAG:", pos)) != std::string::npos) {
      pos += 5;
      size_t end = pos;
      while (end < line.size() &&
             std::isalnum(static_cast<unsigned char>(line[end]))) {
        end++;
      }
      expected.emplace_back(line_no, line.substr(pos, end - pos));
      pos = end;
    }
  }
  std::sort(expected.begin(), expected.end());
  return expected;
}

std::vector<LineRule> finding_pairs(const detlint::FileReport& report) {
  std::vector<LineRule> actual;
  for (const detlint::Finding& finding : report.findings) {
    actual.emplace_back(finding.line, finding.rule);
  }
  std::sort(actual.begin(), actual.end());
  return actual;
}

/// Lint `file` under its own name and require findings == markers.
detlint::FileReport expect_marked_findings(const std::string& file) {
  const std::string content = read_fixture(file);
  const detlint::FileReport report =
      detlint::lint_file(file, content, detlint::Config{});
  EXPECT_EQ(finding_pairs(report), parse_markers(content)) << file;
  return report;
}

TEST(Detlint, R1EntropySourcesFlagged) {
  const auto report = expect_marked_findings("bad_r1_entropy.cc");
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().tag, "nondet-source");
}

TEST(Detlint, R1StdEnginesAndFloatDistributionsFlagged) {
  const auto report = expect_marked_findings("bad_r1_std_random.cc");
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().tag, "nondet-source");
}

TEST(Detlint, R1StdIntegerDrawsAndShufflesFlagged) {
  const auto report = expect_marked_findings("bad_r1_std_integer.cc");
  ASSERT_EQ(report.findings.size(), 4u);
  EXPECT_EQ(report.findings.front().tag, "nondet-source");
}

TEST(Detlint, R2UnorderedIterationFlagged) {
  const auto report = expect_marked_findings("bad_r2_unordered_iter.cc");
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().tag, "ordered-sink");
}

TEST(Detlint, R3PointerKeysFlagged) {
  const auto report = expect_marked_findings("bad_r3_pointer_key.cc");
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().tag, "pointer-key");
}

TEST(Detlint, R4LibraryFoldsFlagged) {
  const auto report = expect_marked_findings("bad_r4_fp_reduce.cc");
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().tag, "fp-reduce");
}

TEST(Detlint, R5MutableGlobalsFlagged) {
  const auto report = expect_marked_findings("bad_r5_global_state.cc");
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().tag, "global-state");
}

TEST(Detlint, R6UnannotatedSyncMembersFlagged) {
  const auto report = expect_marked_findings("bad_r6_unannotated_sync.cc");
  ASSERT_FALSE(report.findings.empty());
  EXPECT_EQ(report.findings.front().tag, "unannotated-sync");
}

TEST(Detlint, ValidSuppressionsSilenceFindings) {
  const std::string content = read_fixture("ok_suppressed.cc");
  const detlint::FileReport report =
      detlint::lint_file("ok_suppressed.cc", content, detlint::Config{});
  EXPECT_TRUE(report.findings.empty())
      << report.findings.front().str();
  EXPECT_EQ(report.suppressed.size(), 2u);  // trailing + standalone form
}

TEST(Detlint, MalformedSuppressionsAreFindings) {
  // Missing ": reason" (or an unknown rule) is itself flagged, and the
  // original finding stays live.
  expect_marked_findings("bad_suppression.cc");
}

TEST(Detlint, AllowlistedFilePassesWithConfig) {
  const std::string content = read_fixture("ok_allowlisted_io.cc");
  // Without the config the file has R1 findings...
  const detlint::FileReport bare =
      detlint::lint_file("ok_allowlisted_io.cc", content, detlint::Config{});
  EXPECT_FALSE(bare.findings.empty());
  // ...with the allowlist entry it passes, counting the drops.
  const detlint::Config config = detlint::parse_config(
      "R1 ok_allowlisted_io.cc bench-style timing and env knobs\n");
  const detlint::FileReport allowed =
      detlint::lint_file("ok_allowlisted_io.cc", content, config);
  EXPECT_TRUE(allowed.findings.empty());
  EXPECT_EQ(allowed.allowlisted,
            static_cast<int>(bare.findings.size()));
}

TEST(Detlint, ProfPlaneClockAllowlistIsScopedToProfFiles) {
  // The perf plane (src/obs/prof.*) is the one src/ module allowed to read
  // the wall clock, via entries in the real tree's detlint.conf. Lint the
  // same steady_clock fixture content under that shipped config: named as
  // the prof plane it passes through the allowlist, named as any other
  // src/ file the identical line is still an R1 finding.
  const std::string content = read_fixture("ok_prof_clock.cc");
  const detlint::FileReport bare =
      detlint::lint_file("src/obs/prof.cc", content, detlint::Config{});
  ASSERT_FALSE(bare.findings.empty());
  EXPECT_EQ(bare.findings.front().rule, "R1");

  std::ifstream conf_in{std::string{PUFFER_DETLINT_FIXTURES_DIR} +
                        "/../../tools/detlint/detlint.conf"};
  ASSERT_TRUE(conf_in.is_open());
  std::ostringstream conf_body;
  conf_body << conf_in.rdbuf();
  const detlint::Config config = detlint::parse_config(conf_body.str());

  const detlint::FileReport allowed =
      detlint::lint_file("src/obs/prof.cc", content, config);
  EXPECT_TRUE(allowed.findings.empty())
      << allowed.findings.front().str();
  EXPECT_EQ(allowed.allowlisted, static_cast<int>(bare.findings.size()));
  EXPECT_TRUE(config.allows("R1", "src/obs/prof.hh"));

  const detlint::FileReport elsewhere =
      detlint::lint_file("src/sim/fleet.cc", content, config);
  ASSERT_FALSE(elsewhere.findings.empty());
  EXPECT_EQ(elsewhere.findings.front().rule, "R1");
}

/// An entry whose path names nothing under the root is stale (the CLI exits
/// 2 naming it and its line); the shipped config has none.
TEST(Detlint, StaleAllowlistEntriesAreReported) {
  const std::string root =
      std::string{PUFFER_DETLINT_FIXTURES_DIR} + "/../..";
  const detlint::Config config = detlint::parse_config(
      "R1 bench/nn_kernels.cc wall-clock timing\n"
      "R1 bench/ wall-clock timing\n"
      "# a comment line still counts\n"
      "R1 bench/removed_bench.cc wall-clock timing\n"
      "R1 bench/nn_kernels.cc/ a file is not a directory\n"
      "R5 no_such_dir/ gone\n");
  const std::vector<detlint::AllowEntry> stale =
      detlint::stale_entries(config, root);
  ASSERT_EQ(stale.size(), 3u);
  EXPECT_EQ(stale[0].path, "bench/removed_bench.cc");
  EXPECT_EQ(stale[0].line, 4);
  EXPECT_EQ(stale[1].path, "bench/nn_kernels.cc/");
  EXPECT_EQ(stale[1].line, 5);
  EXPECT_EQ(stale[2].rule, "R5");
  EXPECT_EQ(stale[2].line, 6);

  std::ifstream conf_in{root + "/tools/detlint/detlint.conf"};
  ASSERT_TRUE(conf_in.is_open());
  std::ostringstream conf_body;
  conf_body << conf_in.rdbuf();
  EXPECT_TRUE(
      detlint::stale_entries(detlint::parse_config(conf_body.str()), root)
          .empty());
}

TEST(Detlint, DirectoryPrefixAllowlisting) {
  const detlint::Config config =
      detlint::parse_config("R1 bench/ wall-clock timing\n");
  EXPECT_TRUE(config.allows("R1", "bench/nn_kernels.cc"));
  EXPECT_FALSE(config.allows("R1", "src/sim/fleet.cc"));
  EXPECT_FALSE(config.allows("R2", "bench/nn_kernels.cc"));
}

TEST(Detlint, CleanFixtureHasNoFindings) {
  const std::string content = read_fixture("ok_clean.cc");
  const detlint::FileReport report =
      detlint::lint_file("ok_clean.cc", content, detlint::Config{});
  EXPECT_TRUE(report.findings.empty())
      << report.findings.front().str();
  EXPECT_TRUE(report.suppressed.empty());
}

TEST(Detlint, RngImplementationIsExemptFromR1) {
  // The same R1-laden content relabeled as the sanctioned RNG module must
  // not produce R1 findings (R5/R6 etc. still apply).
  for (const char* fixture : {"bad_r1_entropy.cc", "bad_r1_std_random.cc",
                              "bad_r1_std_integer.cc"}) {
    for (const char* path : {"src/util/rng.cc", "src/util/rng.hh"}) {
      const detlint::FileReport report = detlint::lint_file(
          path, read_fixture(fixture), detlint::Config{});
      for (const detlint::Finding& finding : report.findings) {
        EXPECT_NE(finding.rule, "R1") << fixture << ": " << finding.str();
      }
    }
  }
}

TEST(Detlint, NnKernelLayerIsExemptFromR4) {
  const std::string content = read_fixture("bad_r4_fp_reduce.cc");
  const detlint::FileReport report =
      detlint::lint_file("src/nn/reduce_kernels.cc", content,
                         detlint::Config{});
  EXPECT_TRUE(report.findings.empty());
}

TEST(Detlint, ConfigRejectsEntriesWithoutReason) {
  EXPECT_THROW(detlint::parse_config("R1 bench/foo.cc\n"),
               std::runtime_error);
  EXPECT_THROW(detlint::parse_config("R9 bench/foo.cc some reason\n"),
               std::runtime_error);
  EXPECT_NO_THROW(detlint::parse_config(
      "# comment\n\nordered-sink src/x.cc reason text here\n"));
}

TEST(Detlint, RuleNamesNormalize) {
  EXPECT_EQ(detlint::normalize_rule("R2"), "R2");
  EXPECT_EQ(detlint::normalize_rule("ordered-sink"), "R2");
  EXPECT_EQ(detlint::normalize_rule("nondet-source"), "R1");
  EXPECT_EQ(detlint::normalize_rule("bogus"), "");
  EXPECT_EQ(detlint::rule_tag("R6"), "unannotated-sync");
}

TEST(Detlint, StringsAndCommentsAreNotCode) {
  // rand()/getenv inside string literals or comments must not fire; the
  // raw-string form must not either.
  const std::string content =
      "namespace f {\n"
      "const char* kHelp = \"rand() and getenv() are banned\";\n"
      "// rand() in a comment\n"
      "const char* kRaw = R\"(std::random_device inside raw)\";\n"
      "}  // namespace f\n";
  const detlint::FileReport report =
      detlint::lint_file("doc.cc", content, detlint::Config{});
  EXPECT_TRUE(report.findings.empty())
      << report.findings.front().str();
}

}  // namespace
