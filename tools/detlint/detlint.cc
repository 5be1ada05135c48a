#include "detlint/detlint.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace detlint {

namespace {

const std::map<std::string, std::string, std::less<>> kRuleTags = {
    {"R1", "nondet-source"}, {"R2", "ordered-sink"}, {"R3", "pointer-key"},
    {"R4", "fp-reduce"},     {"R5", "global-state"}, {"R6", "unannotated-sync"},
};

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

// ---------------------------------------------------------------------------
// Scrubber: blank out comments and string/char-literal contents so the rule
// engine only ever sees code, while collecting DETLINT-OK suppressions from
// the comment text it removes. Line structure is preserved exactly.
// ---------------------------------------------------------------------------

struct Suppression {
  std::string rule;  ///< normalized rule id
};

struct ScrubResult {
  std::vector<std::string> lines;  ///< code with comments/strings blanked
  /// line (1-based) -> suppressions that apply to that line
  std::map<int, std::vector<Suppression>> suppressions;
  std::vector<Finding> malformed;  ///< DETLINT-OK with bad tag / no reason
};

/// Parse every suppression marker — DETLINT-OK followed immediately by
/// "(tag): reason" — inside one comment.
void parse_comment(const std::string& path, const std::string& comment,
                   const int comment_line, const bool line_has_code,
                   ScrubResult& out) {
  static const std::string kMarker = "DETLINT-OK";
  size_t pos = 0;
  while ((pos = comment.find(kMarker, pos)) != std::string::npos) {
    size_t cursor = pos + kMarker.size();
    pos = cursor;
    const int target_line = line_has_code ? comment_line : comment_line + 1;
    if (cursor >= comment.size() || comment[cursor] != '(') {
      // Prose mentioning the marker word (docs, this file) — only the form
      // with an immediately-following parenthesis is a suppression attempt.
      continue;
    }
    const size_t close = comment.find(')', cursor);
    if (close == std::string::npos) {
      out.malformed.push_back({path, comment_line, "SUPP", "bad-suppression",
                               "unterminated DETLINT-OK(rule"});
      continue;
    }
    const std::string tag = comment.substr(cursor + 1, close - cursor - 1);
    const std::string rule = normalize_rule(tag);
    if (rule.empty()) {
      out.malformed.push_back({path, comment_line, "SUPP", "bad-suppression",
                               "unknown rule '" + tag + "' in DETLINT-OK"});
      continue;
    }
    size_t reason = close + 1;
    if (reason >= comment.size() || comment[reason] != ':') {
      out.malformed.push_back({path, comment_line, "SUPP", "bad-suppression",
                               "DETLINT-OK(" + tag + ") missing ': reason'"});
      continue;
    }
    reason++;
    while (reason < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[reason]))) {
      reason++;
    }
    if (reason >= comment.size()) {
      out.malformed.push_back({path, comment_line, "SUPP", "bad-suppression",
                               "DETLINT-OK(" + tag + ") has an empty reason"});
      continue;
    }
    out.suppressions[target_line].push_back({rule});
  }
}

ScrubResult scrub(const std::string& path, const std::string& content) {
  ScrubResult out;
  enum class State { Code, LineComment, BlockComment, String, Char, Raw };
  State state = State::Code;
  std::string line;          // scrubbed code of the current line
  std::string comment;       // text of the comment being collected
  int comment_start = 0;     // line the current comment opened on
  bool code_before = false;  // current comment trails code on its line
  std::string raw_delim;     // raw-string closing delimiter: )delim"
  int line_no = 1;

  auto flush_line = [&] {
    out.lines.push_back(line);
    line.clear();
    line_no++;
  };
  auto close_comment = [&] {
    // A comment's suppression targets its own line when code precedes it on
    // that line, else the next line (standalone-comment form).
    parse_comment(path, comment, comment_start, code_before, out);
    comment.clear();
  };

  const size_t n = content.size();
  for (size_t i = 0; i < n; i++) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          comment_start = line_no;
          code_before =
              line.find_first_not_of(" \t") != std::string::npos;
          i++;
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          comment_start = line_no;
          code_before =
              line.find_first_not_of(" \t") != std::string::npos;
          i++;
        } else if (c == 'R' && next == '"' &&
                   (line.empty() || !(std::isalnum(static_cast<unsigned char>(
                                          line.back())) ||
                                      line.back() == '_'))) {
          // Raw string literal R"delim( ... )delim"
          size_t j = i + 2;
          std::string delim;
          while (j < n && content[j] != '(' && content[j] != '\n' &&
                 delim.size() < 16) {
            delim += content[j++];
          }
          if (j < n && content[j] == '(') {
            raw_delim = ")" + delim + "\"";
            state = State::Raw;
            line += "\"\"";  // leave an empty-literal placeholder
            i = j;           // consumed through the opening '('
          } else {
            line += c;  // not actually a raw string
          }
        } else if (c == '"') {
          state = State::String;
          line += '"';
        } else if (c == '\'') {
          state = State::Char;
          line += '\'';
        } else if (c == '\n') {
          flush_line();
        } else {
          line += c;
        }
        break;
      case State::LineComment:
        if (c == '\n') {
          close_comment();
          state = State::Code;
          flush_line();
        } else {
          comment += c;
        }
        break;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          close_comment();
          state = State::Code;
          i++;
        } else {
          comment += c;
          if (c == '\n') {
            flush_line();
          }
        }
        break;
      case State::String:
        if (c == '\\' && next != '\0') {
          i++;  // skip escaped char
        } else if (c == '"') {
          line += '"';
          state = State::Code;
        } else if (c == '\n') {
          flush_line();  // unterminated; tolerate
          state = State::Code;
        }
        break;
      case State::Char:
        if (c == '\\' && next != '\0') {
          i++;
        } else if (c == '\'') {
          line += '\'';
          state = State::Code;
        } else if (c == '\n') {
          flush_line();
          state = State::Code;
        }
        break;
      case State::Raw:
        if (c == '\n') {
          flush_line();
        } else if (c == raw_delim[0] &&
                   content.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::Code;
        }
        break;
    }
  }
  if (state == State::LineComment || state == State::BlockComment) {
    close_comment();
  }
  flush_line();  // final (possibly empty) line
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer over scrubbed lines: identifiers/numbers/punctuation with line
// numbers. Multi-char operators are split into single chars except "::",
// "->", which the rules need as units.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
  bool ident = false;
};

std::vector<Token> tokenize(const std::vector<std::string>& lines) {
  std::vector<Token> tokens;
  bool continuation = false;  // previous line was a '#' directive ending in \'
  for (size_t li = 0; li < lines.size(); li++) {
    const std::string& line = lines[li];
    const int line_no = static_cast<int>(li) + 1;
    // Preprocessor directives (and their backslash continuations) would
    // corrupt statement tracking — they carry no ';' — so drop them whole.
    const size_t first = line.find_first_not_of(" \t");
    const bool directive =
        continuation || (first != std::string::npos && line[first] == '#');
    if (directive) {
      continuation = !line.empty() && line.back() == '\\';
      continue;
    }
    size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        i++;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[j])) ||
                line[j] == '_')) {
          j++;
        }
        tokens.push_back({line.substr(i, j - i), line_no, true});
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[j])) ||
                line[j] == '.' || line[j] == '_')) {
          j++;
        }
        tokens.push_back({line.substr(i, j - i), line_no, false});
        i = j;
      } else if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        tokens.push_back({"::", line_no, false});
        i += 2;
      } else if (c == '-' && i + 1 < line.size() && line[i + 1] == '>') {
        tokens.push_back({"->", line_no, false});
        i += 2;
      } else {
        tokens.push_back({std::string(1, c), line_no, false});
        i++;
      }
    }
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// Rule engine
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(std::string path, const std::string& content, const Config& config)
      : path_(std::move(path)), config_(config) {
    ScrubResult scrubbed = scrub(path_, content);
    // A standalone suppression applies to the next line that contains code:
    // skip forward over blank and comment-only lines (scrubbed to
    // whitespace) so a multi-line explanation comment above the suppressed
    // statement works naturally. Trailing suppressions sit on a line with
    // code and are left where they are.
    const auto is_blank = [](const std::string& line) {
      return std::all_of(line.begin(), line.end(), [](const char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
      });
    };
    for (auto& [line, supps] : scrubbed.suppressions) {
      size_t target = static_cast<size_t>(line);
      while (target < scrubbed.lines.size() && target >= 1 &&
             is_blank(scrubbed.lines[target - 1])) {
        target++;
      }
      auto& dst = suppressions_[static_cast<int>(target)];
      dst.insert(dst.end(), supps.begin(), supps.end());
    }
    report_.findings = std::move(scrubbed.malformed);
    tokens_ = tokenize(scrubbed.lines);
  }

  FileReport run() {
    const bool in_rng =
        starts_with(path_, "src/util/rng.");  // the one sanctioned source
    const bool in_nn = starts_with(path_, "src/nn/");
    if (!in_rng) {
      rule_r1();
    }
    rule_r2();
    rule_r3();
    if (!in_nn) {
      rule_r4();
    }
    rule_r5_r6();
    std::sort(report_.findings.begin(), report_.findings.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
              });
    return std::move(report_);
  }

 private:
  const Token& tok(const size_t i) const { return tokens_[i]; }
  std::string_view text(const size_t i) const {
    static const std::string kNone;
    return i < tokens_.size() ? tokens_[i].text : kNone;
  }
  std::string_view prev(const size_t i) const {
    return i == 0 ? std::string_view{} : std::string_view{tokens_[i - 1].text};
  }

  void flag(const std::string& rule, const int line,
            const std::string& message) {
    if (config_.allows(rule, path_)) {
      report_.allowlisted++;
      return;
    }
    const auto it = suppressions_.find(line);
    if (it != suppressions_.end()) {
      for (const Suppression& s : it->second) {
        if (s.rule == rule) {
          report_.suppressed.push_back(
              {path_, line, rule, rule_tag(rule), message});
          return;
        }
      }
    }
    report_.findings.push_back({path_, line, rule, rule_tag(rule), message});
  }

  /// Index just past a balanced <...> starting at the '<' at `open`
  /// (tokens_[open] must be "<"). Returns open + 1 if unbalanced.
  size_t skip_angles(const size_t open) const {
    int depth = 0;
    for (size_t i = open; i < tokens_.size(); i++) {
      if (text(i) == "<") {
        depth++;
      } else if (text(i) == ">") {
        depth--;
        if (depth == 0) {
          return i + 1;
        }
      } else if (text(i) == ";") {
        break;  // never spans a statement
      }
    }
    return open + 1;
  }

  // R1: nondeterministic sources. Flags calls (identifier followed by '(')
  // to the libc/std entropy, clock and environment APIs, plus any mention
  // of std::random_device, the std::chrono clock ::now() readers, std's
  // Mersenne Twister engines and distributions, and std::shuffle and
  // std::sample (std::ranges:: too).
  void rule_r1() {
    static const std::set<std::string, std::less<>> kCalls = {
        "rand", "srand", "rand_r", "random", "srandom", "drand48", "lrand48",
        "clock", "time", "timespec_get", "gettimeofday", "clock_gettime",
        "getenv", "secure_getenv",
    };
    static const std::set<std::string, std::less<>> kClocks = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "utc_clock", "file_clock",
    };
    // The distributions' algorithms are the library's choice, and a std
    // engine is a stream no Rng::split label owns. util::Rng pins both its
    // engine and its draws bit for bit.
    static const std::set<std::string, std::less<>> kStdRandom = {
        "mt19937",
        "mt19937_64",
        "normal_distribution",
        "uniform_real_distribution",
        "exponential_distribution",
        "lognormal_distribution",
        "uniform_int_distribution",
    };
    // So are these algorithms' draws from an engine; puffer::shuffle
    // (util/rng.hh) writes std::shuffle's out.
    static const std::set<std::string, std::less<>> kStdAlgorithms = {
        "shuffle",
        "sample",
    };
    for (size_t i = 0; i < tokens_.size(); i++) {
      if (!tok(i).ident) {
        continue;
      }
      const std::string& t = tok(i).text;
      if (t == "random_device") {
        flag("R1", tok(i).line,
             "std::random_device is nondeterministic — derive streams from "
             "util::Rng (seeded, splittable) instead");
      } else if (kStdRandom.count(t) > 0) {
        flag("R1", tok(i).line,
             "std::" + t +
                 " draws outside util::Rng — split a util::Rng and draw "
                 "through it (engine() is the pinned Mt19937_64)");
      } else if (kStdAlgorithms.count(t) > 0 && prev(i) == "::" &&
                 (text(i - 2) == "std" || text(i - 2) == "ranges")) {
        flag("R1", tok(i).line,
             "std::" + t +
                 " draws through the library's own algorithm — use "
                 "puffer::shuffle or Rng::uniform_int (util/rng.hh)");
      } else if (kClocks.count(t) > 0 && text(i + 1) == "::" &&
                 text(i + 2) == "now") {
        flag("R1", tok(i).line,
             "std::chrono::" + t +
                 "::now() reads wall/CPU time — results must depend only on "
                 "virtual (simulated) time");
      } else if (kCalls.count(t) > 0 && text(i + 1) == "(" &&
                 prev(i) != "." && prev(i) != "->") {
        // `.time(` / `->time(` are member calls on user types, not ::time.
        flag("R1", tok(i).line,
             "call to '" + t +
                 "' is a nondeterministic source — use util::Rng / virtual "
                 "time, or allowlist this I/O file in detlint.conf");
      }
    }
  }

  // R2: iteration over unordered containers. Tracks names declared with an
  // unordered type in this file, then flags range-for statements (and
  // explicit .begin() walks) over them.
  void rule_r2() {
    static const std::set<std::string, std::less<>> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };
    std::set<std::string> names;
    for (size_t i = 0; i < tokens_.size(); i++) {
      if (kUnordered.count(tok(i).text) == 0 || text(i + 1) != "<") {
        continue;
      }
      size_t j = skip_angles(i + 1);
      while (j < tokens_.size() &&
             (text(j) == "&" || text(j) == "*" || text(j) == "const")) {
        j++;
      }
      if (j < tokens_.size() && tok(j).ident) {
        names.insert(tok(j).text);
      }
    }
    if (names.empty()) {
      return;
    }
    for (size_t i = 0; i < tokens_.size(); i++) {
      if (tok(i).text == "for" && text(i + 1) == "(") {
        // Range-for: a ':' at parenthesis depth 1; the expression after it
        // is the range.
        int depth = 0;
        size_t colon = 0;
        size_t close = 0;
        for (size_t j = i + 1; j < tokens_.size(); j++) {
          if (text(j) == "(") {
            depth++;
          } else if (text(j) == ")") {
            depth--;
            if (depth == 0) {
              close = j;
              break;
            }
          } else if (text(j) == ":" && depth == 1 && colon == 0) {
            colon = j;
          } else if (text(j) == ";") {
            break;  // classic for, not range-for
          }
        }
        if (colon == 0 || close == 0) {
          continue;
        }
        for (size_t j = colon + 1; j < close; j++) {
          if (tok(j).ident && names.count(tok(j).text) > 0) {
            flag("R2", tok(j).line,
                 "iteration over unordered container '" + tok(j).text +
                     "' — hash order is not deterministic across libraries/"
                     "runs; iterate a sorted view or use std::map, or "
                     "suppress with DETLINT-OK(ordered-sink) if the order "
                     "provably cannot affect results");
            break;
          }
        }
      } else if (tok(i).ident && names.count(tok(i).text) > 0 &&
                 text(i + 1) == "." && text(i + 2) == "begin" &&
                 text(i + 3) == "(") {
        flag("R2", tok(i).line,
             "explicit iterator walk over unordered container '" +
                 tok(i).text + "' — hash order is not deterministic");
      }
    }
  }

  // R3: associative containers keyed on raw pointers — iteration order is
  // address order, which ASLR re-rolls every run.
  void rule_r3() {
    static const std::set<std::string, std::less<>> kAssoc = {
        "map", "set", "multimap", "multiset",
        "unordered_map", "unordered_set",
    };
    for (size_t i = 0; i + 1 < tokens_.size(); i++) {
      if (kAssoc.count(tok(i).text) == 0 || text(i + 1) != "<" ||
          prev(i) != "::" || i < 2 || text(i - 2) != "std") {
        continue;
      }
      // First top-level template argument: tokens until ',' or '>' at
      // angle depth 1.
      int depth = 0;
      size_t last = 0;  // last token of the first argument
      for (size_t j = i + 1; j < tokens_.size(); j++) {
        const std::string_view t = text(j);
        if (t == "<" || t == "(") {
          depth++;
        } else if (t == ">" || t == ")") {
          depth--;
          if (depth == 0) {
            break;
          }
        } else if (t == "," && depth == 1) {
          break;
        } else if (t == ";") {
          break;
        }
        last = j;
      }
      if (last > i + 1 && text(last) == "*") {
        flag("R3", tok(i).line,
             "std::" + tok(i).text +
                 " keyed on a raw pointer — iteration/ordering follows "
                 "allocation addresses, which differ run to run; key on a "
                 "stable id (index, name) instead");
      }
    }
  }

  // R4: floating-point reductions through library folds. Their evaluation
  // order is implementation-defined (std::reduce explicitly so); the repo's
  // contract requires fixed-order accumulation chains, which live in the
  // src/nn kernel layer.
  void rule_r4() {
    static const std::set<std::string, std::less<>> kFolds = {
        "accumulate", "reduce", "transform_reduce", "inner_product",
    };
    for (size_t i = 0; i < tokens_.size(); i++) {
      if (kFolds.count(tok(i).text) == 0) {
        continue;
      }
      const bool std_qualified = prev(i) == "::" && i >= 2 &&
                                 text(i - 2) == "std";
      const bool call = text(i + 1) == "(";
      if ((std_qualified && call) ||
          (call && prev(i) != "." && prev(i) != "->" && prev(i) != "::")) {
        flag("R4", tok(i).line,
             "library fold 'std::" + tok(i).text +
                 "' outside src/nn/ — reduction order is not pinned; write "
                 "an explicit fixed-order loop (see the kernel layer for "
                 "the sanctioned chains)");
      }
    }
  }

  enum class Scope { Namespace, Type, Function, Init, Block };

  // R5 + R6 share a scope tracker: R5 fires on mutable declarations at
  // namespace scope, R6 on unannotated synchronization members at class
  // scope. Statements are token runs ending at ';' (or at an access
  // specifier's ':'); braced initializers stay inside their statement.
  void rule_r5_r6() {
    std::vector<Scope> stack;
    size_t stmt_begin = 0;  // first token of the current statement

    auto at_namespace_scope = [&] {
      return std::all_of(stack.begin(), stack.end(),
                         [](Scope s) { return s == Scope::Namespace; });
    };
    auto in_type_scope = [&] {
      return !stack.empty() && stack.back() == Scope::Type;
    };

    for (size_t i = 0; i < tokens_.size(); i++) {
      const std::string& t = tok(i).text;
      if (t == "{") {
        const Scope kind = classify_open(stmt_begin, i);
        stack.push_back(kind);
        if (kind != Scope::Init) {
          stmt_begin = i + 1;
        }
      } else if (t == "}") {
        Scope kind = Scope::Block;
        if (!stack.empty()) {
          kind = stack.back();
          stack.pop_back();
        }
        if (kind != Scope::Init) {
          stmt_begin = i + 1;
        }
      } else if (t == ";") {
        if (at_namespace_scope()) {
          check_r5(stmt_begin, i);
        } else if (in_type_scope()) {
          check_r6(stmt_begin, i);
        }
        stmt_begin = i + 1;
      } else if (t == ":" && (prev(i) == "public" || prev(i) == "private" ||
                              prev(i) == "protected")) {
        stmt_begin = i + 1;  // access specifier, not part of a declaration
      }
    }
  }

  /// Decide what kind of scope the '{' at `open` introduces, from the
  /// statement tokens [stmt_begin, open).
  Scope classify_open(const size_t stmt_begin, const size_t open) const {
    const std::string_view before = prev(open);
    for (size_t j = stmt_begin; j < open; j++) {
      const std::string& t = tokens_[j].text;
      if (t == "namespace" || t == "extern") {
        return Scope::Namespace;
      }
      if ((t == "class" || t == "struct" || t == "union" || t == "enum") &&
          before != ")") {
        // `struct Foo make() {` is a function — the ')' right before the
        // brace wins.
        return Scope::Type;
      }
    }
    if (before == ")" || before == "try" || before == "do" ||
        before == "else" || before == "const" || before == "noexcept" ||
        before == "override" || before == "final" ||
        before == "NO_THREAD_SAFETY_ANALYSIS") {
      return Scope::Function;
    }
    if (before == "=" || before == "," || before == "(" || before == "[" ||
        before == "{" || before == "return") {
      return Scope::Init;
    }
    if (open > 0 && tokens_[open - 1].ident) {
      return Scope::Init;  // braced initializer `name{...}`
    }
    return Scope::Block;
  }

  /// R5 over one namespace-scope statement [begin, end).
  void check_r5(const size_t begin, const size_t end) {
    if (begin >= end) {
      return;
    }
    static const std::set<std::string, std::less<>> kSkipLead = {
        "using",  "typedef", "template", "static_assert", "friend",
        "struct", "class",   "union",    "enum",          "namespace",
        "extern", "operator",
    };
    std::string_view first = tokens_[begin].text;
    if ((first == "inline" || first == "static") && begin + 1 < end) {
      first = tokens_[begin + 1].text;  // look past storage-class keywords
    }
    if (kSkipLead.count(std::string(first)) > 0) {
      return;
    }
    // A flaggable declaration has an initializer ('=' or braced) at top
    // level, or declares a synchronization object outright; immutable
    // (const/constexpr/constinit), thread-confined (thread_local) and
    // function declarations (top-level '(' before the initializer) pass.
    int angle = 0;
    bool has_init = false;
    bool has_sync_type = false;
    for (size_t j = begin; j < end; j++) {
      const std::string& t = tokens_[j].text;
      if (t == "<") {
        angle++;
      } else if (t == ">") {
        angle = std::max(0, angle - 1);
      } else if (t == "const" || t == "constexpr" || t == "constinit" ||
                 t == "thread_local") {
        return;  // immutable or thread-confined: not shared mutable state
      } else if (t == "atomic" || t == "mutex" || t == "Mutex") {
        has_sync_type = true;
      } else if ((t == "=" || t == "{") && angle == 0) {
        has_init = true;
        break;
      } else if (t == "(" && angle == 0) {
        return;  // function declaration / definition header
      }
    }
    if (!has_init && !has_sync_type) {
      return;  // no initializer and not a sync object: likely not a variable
    }
    flag("R5", tokens_[begin].line,
         "mutable namespace-scope state — globals shared across sessions/"
         "threads break replay; move into an object threaded through "
         "callers, or annotate the singleton with "
         "DETLINT-OK(global-state) and a reason");
  }

  /// R6 over one class-scope member statement [begin, end).
  void check_r6(const size_t begin, const size_t end) {
    if (begin >= end) {
      return;
    }
    static const std::set<std::string, std::less<>> kAnnotations = {
        "GUARDED_BY",      "PT_GUARDED_BY", "REQUIRES",
        "REQUIRES_SHARED", "EXCLUDES",      "ACQUIRED_BEFORE",
        "ACQUIRED_AFTER",  "CAPABILITY",    "RETURN_CAPABILITY",
        "GUARDS",          "ATOMIC_SAFE",
    };
    static const std::set<std::string, std::less<>> kSkipLead = {
        "using", "typedef", "template", "static_assert", "friend",
        "struct", "class", "union", "enum", "operator",
    };
    if (kSkipLead.count(tokens_[begin].text) > 0) {
      return;
    }
    // Locate a synchronization type used as the member's type. A top-level
    // '(' that is not an annotation's argument list means this statement is
    // a function declaration (member variables only take brace-or-equal
    // initializers), so it cannot be a sync member.
    int angle = 0;
    size_t sync_tok = 0;
    bool annotated = false;
    for (size_t j = begin; j < end; j++) {
      const std::string& t = tokens_[j].text;
      if (t == "<") {
        angle++;
      } else if (t == ">") {
        angle = std::max(0, angle - 1);
      } else if (t == "(" && angle == 0) {
        if (j == begin || kAnnotations.count(tokens_[j - 1].text) == 0) {
          return;  // function declaration
        }
      } else if (kAnnotations.count(t) > 0) {
        annotated = true;
      } else if (sync_tok == 0 && angle == 0 &&
                 (t == "mutex" || t == "shared_mutex" ||
                  t == "recursive_mutex" || t == "atomic" || t == "Mutex")) {
        // Only the member's own type position (angle depth 0) counts:
        // std::unique_lock<std::mutex> is the lock wrapper's business.
        if (prev(j) == "." || prev(j) == "->") {
          continue;  // member access, not a type
        }
        sync_tok = j;
      }
    }
    if (sync_tok != 0 && !annotated) {
      flag("R6", tokens_[sync_tok].line,
           "synchronization member '" + tokens_[sync_tok].text +
               "' without a thread-safety annotation — state what it guards "
               "(GUARDS/GUARDED_BY) or why lock-free access is safe "
               "(ATOMIC_SAFE); see src/util/thread_annotations.hh");
    }
  }

  std::string path_;
  const Config& config_;
  std::vector<Token> tokens_;
  std::map<int, std::vector<Suppression>> suppressions_;
  FileReport report_;
};

}  // namespace

std::string Finding::str() const {
  std::ostringstream out;
  out << file << ":" << line << ": " << rule << " [" << tag << "] " << message;
  return out.str();
}

std::string normalize_rule(const std::string_view rule_or_tag) {
  const auto direct = kRuleTags.find(rule_or_tag);
  if (direct != kRuleTags.end()) {
    return direct->first;
  }
  for (const auto& [rule, tag] : kRuleTags) {
    if (tag == rule_or_tag) {
      return rule;
    }
  }
  return {};
}

std::string rule_tag(const std::string_view rule) {
  const auto it = kRuleTags.find(rule);
  return it == kRuleTags.end() ? std::string{} : it->second;
}

bool Config::allows(const std::string_view rule,
                    const std::string_view path) const {
  for (const AllowEntry& entry : allow) {
    if (entry.rule != rule) {
      continue;
    }
    if (entry.path == path) {
      return true;
    }
    if (!entry.path.empty() && entry.path.back() == '/' &&
        starts_with(path, entry.path)) {
      return true;
    }
  }
  return false;
}

Config parse_config(const std::string& text) {
  Config config;
  std::istringstream stream{text};
  std::string raw;
  int line_no = 0;
  while (std::getline(stream, raw)) {
    line_no++;
    const size_t hash = raw.find('#');
    std::string line = hash == std::string::npos ? raw : raw.substr(0, hash);
    std::istringstream fields{line};
    std::string rule_text;
    std::string path;
    if (!(fields >> rule_text >> path)) {
      if (!rule_text.empty()) {
        throw std::runtime_error("detlint.conf:" + std::to_string(line_no) +
                                 ": entry needs <rule> <path> <reason>");
      }
      continue;  // blank / comment-only line
    }
    const std::string rule = normalize_rule(rule_text);
    if (rule.empty()) {
      throw std::runtime_error("detlint.conf:" + std::to_string(line_no) +
                               ": unknown rule '" + rule_text + "'");
    }
    std::string reason;
    std::getline(fields, reason);
    const size_t start = reason.find_first_not_of(" \t");
    reason = start == std::string::npos ? std::string{} : reason.substr(start);
    if (reason.empty()) {
      throw std::runtime_error("detlint.conf:" + std::to_string(line_no) +
                               ": allowlist entry for '" + path +
                               "' needs a reason");
    }
    config.allow.push_back({rule, path, reason, line_no});
  }
  return config;
}

std::vector<AllowEntry> stale_entries(const Config& config,
                                      const std::filesystem::path& root) {
  std::vector<AllowEntry> stale;
  for (const AllowEntry& entry : config.allow) {
    const std::filesystem::path target = root / entry.path;
    std::error_code ec;
    const bool found = entry.path.back() == '/'
                           ? std::filesystem::is_directory(target, ec)
                           : std::filesystem::is_regular_file(target, ec);
    if (!found) {
      stale.push_back(entry);
    }
  }
  return stale;
}

FileReport lint_file(const std::string& path, const std::string& content,
                     const Config& config) {
  Linter linter{path, content, config};
  return linter.run();
}

}  // namespace detlint
