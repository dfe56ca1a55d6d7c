// peerscope-lint: the project-invariant static analysis pass.
//
// PRs 1–3 established repo-wide contracts that the compiler cannot
// see: artifact writes go through util::write_file_atomic, metric and
// span names match src/obs/metric_names.def and trace event names
// match src/obs/trace_names.def (both directions, both under the
// metric-name-registry rule), `peerscope.<thing>/<n>` schema strings
// match src/obs/schema_versions.def, CLI exit codes stay unique and
// documented, and headers follow the house hygiene rules. This library walks the tree and enforces each contract as a
// named, suppressible rule (DESIGN.md §11); `tools/peerscope_lint.cpp`
// is the CLI, `tests/lint/` the fixture suite, and the `lint` ctest
// label runs both over the real tree.
//
// Suppression syntax, checked per rule name:
//   // peerscope-lint: allow(<rule>[, <rule>...])       one line
//   // peerscope-lint: allow-file(<rule>[, <rule>...])  whole file
// An `allow` on a line with no code applies to the next line instead.
#pragma once

#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace peerscope::lint {

// Rule identifiers (the names accepted by allow(...) and --rule).
inline constexpr std::string_view kRuleRawIo = "no-raw-artifact-io";
inline constexpr std::string_view kRuleMetricNames = "metric-name-registry";
inline constexpr std::string_view kRuleSchemaVersions =
    "schema-version-consistency";
inline constexpr std::string_view kRuleExitCodes = "exit-code-uniqueness";
inline constexpr std::string_view kRuleHeaderHygiene = "header-hygiene";
inline constexpr std::string_view kRuleBuildArtifacts =
    "no-committed-build-artifacts";
inline constexpr std::string_view kRuleEngineHotPath = "engine-hot-path";
inline constexpr std::string_view kRuleIteration =
    "nondeterministic-iteration";
inline constexpr std::string_view kRuleRng = "rng-discipline";
inline constexpr std::string_view kRuleLocks = "lock-annotation";
inline constexpr std::string_view kRuleLayering = "module-layering";

/// All rule names, in reporting order.
[[nodiscard]] std::vector<std::string_view> rule_names();

/// One-line summary of what a rule enforces (for --list-rules and the
/// SARIF rule table). Unknown names get an empty view.
[[nodiscard]] std::string_view rule_description(std::string_view rule);

/// One diagnostic. `line` is 1-based; 0 means the finding is about the
/// file (or tree) as a whole rather than a specific line.
struct Finding {
  std::filesystem::path file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  /// Stable identity for baselining: FNV-1a 64 of
  /// rule NUL rel-path NUL trimmed-line-text, as 16 lowercase hex
  /// digits. Line-number independent, so edits elsewhere in the file
  /// never stale a baseline entry; two identical offending lines in
  /// one file share a fingerprint (one entry suppresses both).
  std::string fingerprint;
};

/// "file:line: [rule] message" — the format CI greps and humans click.
[[nodiscard]] std::string to_string(const Finding& finding);

struct Options {
  /// Repository root; registries and README.md are resolved under it.
  std::filesystem::path root;
  /// Rules to run; empty means all. Unknown names are config errors.
  std::set<std::string, std::less<>> rules;
  /// Gates the git-backed no-committed-build-artifacts rule (tests
  /// drive check_tracked_paths directly instead).
  bool check_tracked = true;
  /// Baseline file (`<fingerprint> <rule> <path>` per line, `#`
  /// comments). Matching findings are suppressed and counted in
  /// baseline_suppressed; entries that match nothing become stale-entry
  /// findings so the baseline can only shrink. Empty = no baseline.
  std::filesystem::path baseline;
};

struct LintResult {
  std::vector<Finding> findings;
  /// Configuration problems (missing registry, unknown rule): the tree
  /// was not fully checked and the caller should exit 2, not 1.
  std::vector<std::string> errors;
  /// Findings swallowed by Options::baseline (not in `findings`).
  std::size_t baseline_suppressed = 0;
};

/// Walks src/, tools/, bench/, tests/, examples/ under options.root
/// (skipping tests/lint/fixtures/, which violate rules on purpose) and
/// returns every unsuppressed finding, sorted by file then line.
[[nodiscard]] LintResult run(const Options& options);

// --- building blocks, exposed for the fixture tests ---

/// One lexeme of a C++ source file. `text` views into the source it
/// was cut from, so a token never outlives that buffer.
struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct, kComment };
  Kind kind = Kind::kPunct;
  /// Byte offset of `text` in the source (for a literal, of its first
  /// content byte), so findings map to real lines.
  std::size_t offset = 0;
  /// The spelling. String and char literals carry only the contents
  /// between their delimiters, escapes as written; comments carry the
  /// whole comment, `//` or `/* */` included. Punctuators are single
  /// characters except `::`, which is one token.
  std::string_view text;
};

/// A file lexed once: code tokens in source order, comments apart.
/// Rules match short token sequences on `code`, so a banned name inside
/// a literal or a comment — including this linter's own rule table —
/// never fires; suppression markers are read from `comments` only.
struct TokenStream {
  std::vector<Token> code;
  std::vector<Token> comments;
};

/// Lexes `source` (identifiers, pp-numbers with digit separators,
/// ordinary/prefixed/raw string and char literals, comments,
/// punctuators). Never fails: an unterminated literal or comment runs
/// to the end of the file.
[[nodiscard]] TokenStream tokenize(std::string_view source);

/// The no-committed-build-artifacts core: flags tracked paths under
/// build*/ plus object/archive/ccdb droppings. `tracked` is one
/// repo-relative path per entry (what `git ls-files` prints).
[[nodiscard]] std::vector<Finding> check_tracked_paths(
    const std::vector<std::string>& tracked);

/// The Finding::fingerprint hash, exposed so tests (and baseline
/// tooling) can compute expected values: FNV-1a 64 over
/// `rule NUL rel_path NUL key`, rendered as 16 lowercase hex digits.
/// `key` is the trimmed offending line for line findings, the message
/// for file-level ones.
[[nodiscard]] std::string fingerprint(std::string_view rule,
                                      std::string_view rel_path,
                                      std::string_view key);

/// SARIF 2.1.0 rendering of a completed run: one run, the full rule
/// table (id + shortDescription), one result per finding with
/// level "error", the fingerprint under partialFingerprints, and
/// file URIs relative to `root`. Line-0 findings omit the region.
[[nodiscard]] std::string to_sarif(const LintResult& result,
                                   const std::filesystem::path& root);

}  // namespace peerscope::lint
