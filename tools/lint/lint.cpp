#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <system_error>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "util/json.hpp"

namespace peerscope::lint {
namespace {

namespace fs = std::filesystem;

// Directories walked under the root, and the source extensions that
// count. tests/lint/fixtures/ is excluded: its files violate rules on
// purpose so the fixture suite can assert the diagnostics.
constexpr std::array<std::string_view, 5> kWalkDirs = {
    "src", "tools", "bench", "tests", "examples"};
constexpr std::array<std::string_view, 4> kSourceExts = {".cpp", ".hpp",
                                                         ".h", ".cc"};
constexpr std::string_view kFixtureDir = "tests/lint/fixtures";

constexpr std::string_view kMetricRegistryPath = "src/obs/metric_names.def";
constexpr std::string_view kTraceRegistryPath = "src/obs/trace_names.def";
constexpr std::string_view kSchemaRegistryPath =
    "src/obs/schema_versions.def";
// Optional exit-code registry (`<value> <name>` per line): when the
// file exists, every kExit* constant in tools/ or src/ must be pinned
// there and every entry must name a live constant. Absent file =
// sub-check skipped, so miniature fixture roots without one keep the
// original uniqueness + README semantics.
constexpr std::string_view kExitCodeRegistryPath = "tools/exit_codes.def";
// Optional layer DAG (`<layer>: <dep> <dep>...` per line): when the
// file exists, every `#include "<layer>/..."` in src/ must point at a
// declared dependency of the including file's own layer. Absent file
// = rule silently skipped (same contract as exit_codes.def), so
// fixture roots opt in by checking one in.
constexpr std::string_view kLayersPath = "tools/layers.def";

// The files allowed raw file I/O: the implementation of
// util::write_file_atomic and the fault-injection shim whose hooks
// (util::io::write_some/read_file/...) everything else routes through.
constexpr std::array<std::string_view, 2> kRawIoAllowlist = {
    "src/util/atomic_file.cpp", "src/util/io_faults.cpp"};

[[nodiscard]] bool is_source_file(const fs::path& path) {
  const std::string ext = path.extension().string();
  return std::find(kSourceExts.begin(), kSourceExts.end(), ext) !=
         kSourceExts.end();
}

[[nodiscard]] bool is_header(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".h";
}

[[nodiscard]] std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// The trimmed text of the 1-based `line` in `source` (empty when out
/// of range) — the line-content half of a finding fingerprint.
[[nodiscard]] std::string_view line_text(std::string_view source,
                                         std::size_t line) {
  std::size_t pos = 0;
  for (std::size_t n = 1; n < line; ++n) {
    pos = source.find('\n', pos);
    if (pos == std::string_view::npos) return {};
    ++pos;
  }
  std::size_t eol = source.find('\n', pos);
  if (eol == std::string_view::npos) eol = source.size();
  std::string_view text = source.substr(pos, eol - pos);
  while (!text.empty() &&
         (std::isspace(static_cast<unsigned char>(text.front())) != 0)) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (std::isspace(static_cast<unsigned char>(text.back())) != 0)) {
    text.remove_suffix(1);
  }
  return text;
}

/// Byte offset -> 1-based line number lookup.
class LineIndex {
 public:
  explicit LineIndex(std::string_view text) {
    starts_.push_back(0);
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') starts_.push_back(i + 1);
    }
  }
  [[nodiscard]] std::size_t line_of(std::size_t offset) const {
    const auto it =
        std::upper_bound(starts_.begin(), starts_.end(), offset);
    return static_cast<std::size_t>(it - starts_.begin());
  }

 private:
  std::vector<std::size_t> starts_;
};

[[nodiscard]] bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// `text` without its leading spaces and tabs.
[[nodiscard]] std::string_view skip_blanks(std::string_view text) {
  const std::size_t first = text.find_first_not_of(" \t");
  return first == std::string_view::npos ? std::string_view{}
                                         : text.substr(first);
}

/// Drops `prefix` from the front of `text` when it is there.
bool consume(std::string_view& text, std::string_view prefix) {
  if (text.substr(0, prefix.size()) != prefix) return false;
  text.remove_prefix(prefix.size());
  return true;
}

/// Whether only blanks precede `offset` on its line of `source`.
[[nodiscard]] bool starts_line(std::string_view source, std::size_t offset) {
  const std::size_t newline = source.rfind('\n', offset);
  const std::size_t bol = newline == std::string_view::npos ? 0 : newline + 1;
  return skip_blanks(source.substr(bol, offset - bol)).empty();
}

// --- token patterns ---------------------------------------------------
//
// A rule is a short token sequence written as space-separated
// elements: `std :: ofstream`, `obs :: counter ( $str`,
// `Span $id? { $str`. `$id`, `$num` and `$str` accept any identifier,
// number or string literal; any other element is a `|`-separated list
// of spellings an identifier, number or punctuator must equal, so a
// literal's contents never match code. A trailing `?` makes an element
// optional (greedy).

constexpr std::size_t kNoMatch = std::string_view::npos;

[[nodiscard]] bool accepts(std::string_view element, const Token& token) {
  if (element == "$id") return token.kind == Token::Kind::kIdent;
  if (element == "$num") return token.kind == Token::Kind::kNumber;
  if (element == "$str") return token.kind == Token::Kind::kString;
  if (token.kind == Token::Kind::kString ||
      token.kind == Token::Kind::kChar) {
    return false;
  }
  for (;;) {
    const std::size_t bar = element.find('|');
    if (element.substr(0, bar) == token.text) return true;
    if (bar == std::string_view::npos) return false;
    element.remove_prefix(bar + 1);
  }
}

/// Index one past the match of `pattern` at tokens[i], or kNoMatch.
[[nodiscard]] std::size_t match_at(const std::vector<Token>& tokens,
                                   std::size_t i, std::string_view pattern) {
  while (!pattern.empty()) {
    const std::size_t space = pattern.find(' ');
    std::string_view element = pattern.substr(0, space);
    pattern.remove_prefix(space == std::string_view::npos ? pattern.size()
                                                          : space + 1);
    const bool optional = element.size() > 1 && element.back() == '?';
    if (optional) element.remove_suffix(1);
    if (i < tokens.size() && accepts(element, tokens[i])) {
      ++i;
    } else if (!optional) {
      return kNoMatch;
    }
  }
  return i;
}

/// Calls fn(begin, end) for each non-overlapping match of `pattern` in
/// source order; [begin, end) are the matched token indices.
template <typename Fn>
void for_each_match(const std::vector<Token>& tokens,
                    std::string_view pattern, Fn&& fn) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::size_t end = match_at(tokens, i, pattern);
    if (end == kNoMatch) continue;
    fn(i, end);
    i = end - 1;
  }
}

// --- suppressions -----------------------------------------------------

struct Suppressions {
  /// rule -> lines on which it is allowed.
  std::map<std::string, std::set<std::size_t>, std::less<>> lines;
  /// rules allowed for the whole file.
  std::set<std::string, std::less<>> whole_file;

  [[nodiscard]] bool covers(std::string_view rule,
                            std::size_t line) const {
    if (whole_file.count(std::string{rule}) != 0) return true;
    const auto it = lines.find(rule);
    return it != lines.end() && it->second.count(line) != 0;
  }
};

/// Parses `peerscope-lint: allow(r1, r2)` / `allow-file(...)` markers
/// from the comments. A `//` marker with nothing before it on its line
/// applies to the next line.
Suppressions parse_suppressions(std::string_view source,
                                const std::vector<Token>& comments,
                                const LineIndex& lines) {
  constexpr std::string_view kMarker = "peerscope-lint:";
  Suppressions out;
  for (const Token& comment : comments) {
    for (std::size_t at = comment.text.find(kMarker);
         at != std::string_view::npos;
         at = comment.text.find(kMarker, at + 1)) {
      std::string_view rest =
          skip_blanks(comment.text.substr(at + kMarker.size()));
      const bool file_wide = consume(rest, "allow-file(");
      if (!file_wide && !consume(rest, "allow(")) continue;
      const std::size_t close = rest.find(')');
      if (close == std::string_view::npos) continue;
      const bool own_line = comment.text.substr(0, 2) == "//" &&
                            starts_line(source, comment.offset);
      const std::size_t line =
          lines.line_of(comment.offset + at) + (own_line ? 1 : 0);
      std::string rules{rest.substr(0, close)};
      std::replace(rules.begin(), rules.end(), ',', ' ');
      std::istringstream split{rules};
      for (std::string rule; split >> rule;) {
        if (file_wide) {
          out.whole_file.insert(rule);
        } else {
          out.lines[rule].insert(line);
        }
      }
    }
  }
  return out;
}

// --- registries -------------------------------------------------------

struct RegistryEntry {
  std::string kind;
  std::string name;
  std::size_t line = 0;
  /// Static prefix before the first `<placeholder>`; empty when the
  /// entry is exact.
  std::string dynamic_prefix;
  bool used = false;
};

struct Registry {
  fs::path file;
  std::vector<RegistryEntry> entries;

  [[nodiscard]] RegistryEntry* find_exact(std::string_view name) {
    for (auto& entry : entries) {
      if (entry.dynamic_prefix.empty() && entry.name == name) {
        return &entry;
      }
    }
    return nullptr;
  }
};

/// Parses a `<kind> <name>` registry file; unknown kinds are config
/// errors (a typo there would silently un-check names).
std::optional<Registry> load_registry(
    const fs::path& path, const std::set<std::string>& kinds,
    std::vector<std::string>& errors) {
  const auto content = read_file(path);
  if (!content) {
    errors.push_back("cannot read registry " + path.string());
    return std::nullopt;
  }
  Registry out;
  out.file = path;
  std::istringstream in{*content};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields{line};
    std::string kind;
    std::string name;
    if (!(fields >> kind)) continue;  // blank line
    if (!(fields >> name) || kinds.count(kind) == 0) {
      errors.push_back(path.string() + ":" + std::to_string(line_no) +
                       ": malformed registry line");
      continue;
    }
    RegistryEntry entry;
    entry.kind = kind;
    entry.name = name;
    entry.line = line_no;
    const std::size_t angle = name.find('<');
    if (angle != std::string::npos) {
      entry.dynamic_prefix = name.substr(0, angle);
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

// --- per-file context -------------------------------------------------

struct FileContext {
  fs::path path;          // absolute (or as walked)
  std::string rel;        // root-relative, '/'-separated
  std::string source;     // raw bytes; `tokens` views into them
  TokenStream tokens;
  LineIndex lines;
  Suppressions suppressions;

  FileContext(fs::path p, std::string rel_path, std::string src)
      : path(std::move(p)),
        rel(std::move(rel_path)),
        source(std::move(src)),
        tokens(tokenize(source)),
        lines(source),
        suppressions(parse_suppressions(source, tokens.comments, lines)) {}
  FileContext(const FileContext&) = delete;
  FileContext& operator=(const FileContext&) = delete;
};

class Linter {
 public:
  explicit Linter(const Options& options) : options_(options) {}

  LintResult run() {
    if (!init_rules()) return std::move(result_);
    load_registries();
    load_layers();
    collect_files();
    collect_unordered_names();
    for (const auto& file : files_) scan_file(*file);
    finish_registries();
    check_exit_codes();
    if (enabled(kRuleBuildArtifacts) && options_.check_tracked) {
      append(check_tracked_paths(tracked_files()));
    }
    apply_baseline();
    std::sort(result_.findings.begin(), result_.findings.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.file, a.line, a.rule) <
                       std::tie(b.file, b.line, b.rule);
              });
    return std::move(result_);
  }

 private:
  [[nodiscard]] bool enabled(std::string_view rule) const {
    return options_.rules.empty() ||
           options_.rules.count(rule) != 0;
  }

  bool init_rules() {
    const auto known = rule_names();
    for (const auto& rule : options_.rules) {
      if (std::find(known.begin(), known.end(), rule) == known.end()) {
        result_.errors.push_back("unknown rule: " + rule);
      }
    }
    return result_.errors.empty();
  }

  void load_registries() {
    if (enabled(kRuleMetricNames)) {
      metric_registry_ =
          load_registry(options_.root / kMetricRegistryPath,
                        {"counter", "gauge", "histogram", "span"},
                        result_.errors);
      trace_registry_ = load_registry(options_.root / kTraceRegistryPath,
                                      {"instant", "counter"},
                                      result_.errors);
    }
    if (enabled(kRuleSchemaVersions)) {
      schema_registry_ = load_registry(
          options_.root / kSchemaRegistryPath, {"schema"}, result_.errors);
    }
  }

  void collect_files() {
    for (const auto dir : kWalkDirs) {
      const fs::path base = options_.root / dir;
      if (!fs::is_directory(base)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file() || !is_source_file(entry.path())) {
          continue;
        }
        const std::string rel =
            fs::relative(entry.path(), options_.root).generic_string();
        if (rel.rfind(kFixtureDir, 0) == 0) continue;
        auto content = read_file(entry.path());
        if (!content) {
          result_.errors.push_back("cannot read " + rel);
          continue;
        }
        files_.push_back(std::make_unique<FileContext>(
            entry.path(), rel, std::move(*content)));
      }
    }
    std::sort(files_.begin(), files_.end(),
              [](const auto& a, const auto& b) { return a->rel < b->rel; });
  }

  [[nodiscard]] std::string rel_of(const fs::path& path) const {
    std::error_code ec;
    const fs::path rel = fs::relative(path, options_.root, ec);
    if (ec || rel.empty()) return path.generic_string();
    return rel.generic_string();
  }

  void report(const FileContext& file, std::size_t offset,
              std::string_view rule, std::string message) {
    const std::size_t line = file.lines.line_of(offset);
    if (file.suppressions.covers(rule, line)) return;
    const std::string_view key =
        line != 0 ? line_text(file.source, line)
                  : std::string_view{message};
    std::string print = fingerprint(rule, file.rel, key);
    result_.findings.push_back({file.path, line, std::string{rule},
                                std::move(message), std::move(print)});
  }

  void append(std::vector<Finding> extra) {
    for (auto& finding : extra) {
      if (finding.fingerprint.empty()) {
        finding.fingerprint = fingerprint(
            finding.rule, finding.file.generic_string(), finding.message);
      }
      result_.findings.push_back(std::move(finding));
    }
  }

  void scan_file(const FileContext& file) {
    if (enabled(kRuleRawIo)) check_raw_io(file);
    if (enabled(kRuleMetricNames) && metric_registry_) {
      check_names(file, kMetricApis, *metric_registry_, kMetricRegistryPath);
    }
    if (enabled(kRuleMetricNames) && trace_registry_) {
      check_names(file, kTraceApis, *trace_registry_, kTraceRegistryPath);
    }
    if (enabled(kRuleSchemaVersions) && schema_registry_) {
      check_schemas(file);
    }
    if (enabled(kRuleHeaderHygiene) && is_header(file.path)) {
      check_header_hygiene(file);
    }
    if (enabled(kRuleEngineHotPath)) check_engine_hot_path(file);
    if (enabled(kRuleIteration)) check_iteration(file);
    if (enabled(kRuleRng)) check_rng(file);
    if (enabled(kRuleLocks)) check_locks(file);
    if (enabled(kRuleLayering) && layers_) check_layering(file);
  }

  // A banned token sequence and the diagnostic it earns.
  struct Banned {
    std::string_view pattern;
    std::string_view message;
  };

  void report_each(const FileContext& file, std::string_view rule,
                   const Banned& banned) {
    for_each_match(file.tokens.code, banned.pattern,
                   [&](std::size_t i, std::size_t) {
                     report(file, file.tokens.code[i].offset, rule,
                            std::string{banned.message});
                   });
  }

  // (1) no-raw-artifact-io: every write-capable file-open primitive,
  // outside the util::write_file_atomic implementation and the util::io
  // fault shim. Within src/ the rule also covers the read side: every
  // reader must route through util::io::read_file so the storage
  // fault-injection layer sees all file I/O.
  void check_raw_io(const FileContext& file) {
    if (std::find(kRawIoAllowlist.begin(), kRawIoAllowlist.end(),
                  file.rel) != kRawIoAllowlist.end()) {
      return;
    }
    static constexpr std::array<Banned, 5> kWrites = {{
        {"std :: ofstream", "std::ofstream"},
        {"std :: fstream", "std::fstream"},
        {"fopen (", "fopen()"},
        {":: open (", "open(2)"},
        {":: creat (", "creat(2)"},
    }};
    const std::vector<Token>& code = file.tokens.code;
    for (const auto& banned : kWrites) {
      for_each_match(code, banned.pattern, [&](std::size_t i, std::size_t) {
        // `foo::open(` is a member/namespace call, not the syscall.
        if (banned.message == "open(2)" && i > 0) {
          const Token& prev = code[i - 1];
          if (prev.offset + prev.text.size() == code[i].offset &&
              (prev.kind == Token::Kind::kIdent || prev.text == ">")) {
            return;
          }
        }
        report(file, code[i].offset, kRuleRawIo,
               std::string{banned.message} +
                   " bypasses util::write_file_atomic; route artifact "
                   "writes through it (or suppress in tests)");
      });
    }
    // Read-side tokens, src/-only: tools and tests may slurp however
    // they like, but library code must stay fault-injectable.
    if (file.rel.rfind("src/", 0) != 0) return;
    report_each(file, kRuleRawIo,
                {"std :: ifstream",
                 "std::ifstream bypasses the util::io fault shim; route "
                 "src/ reads through util::io::read_file (or suppress "
                 "with an allow annotation)"});
  }

  // (2) metric-name-registry: every literal handed to the obs API must
  // be registered with the right kind, and (checked in
  // finish_registries) every registered name must be used.
  struct NameApi {
    std::string_view pattern;  // ends at the name literal
    std::string_view kind;
  };
  static constexpr std::array<NameApi, 6> kMetricApis = {{
      {"obs :: counter ( $str", "counter"},
      {"PEERSCOPE_METRIC_ADD|PEERSCOPE_METRIC_INC ( $str", "counter"},
      {"obs :: histogram ( $str", "histogram"},
      {"obs :: set_gauge ( $str", "gauge"},
      {"PEERSCOPE_SPAN ( $str", "span"},
      {"Span $id? { $str", "span"},
  }};

  // Trace event names go through the same rule with their own
  // registry: the timeline's vocabulary is as much a public schema as
  // the metrics keys (DESIGN.md §12). Span begin/end names are the
  // span paths already pinned by metric_names.def, so only the
  // instant/counter hooks are scanned here.
  static constexpr std::array<NameApi, 4> kTraceApis = {{
      {"obs :: trace_instant ( $str", "instant"},
      {"PEERSCOPE_TRACE_INSTANT ( $str", "instant"},
      {"obs :: trace_counter ( $str", "counter"},
      {"PEERSCOPE_TRACE_COUNTER ( $str", "counter"},
  }};

  template <std::size_t N>
  void check_names(const FileContext& file,
                   const std::array<NameApi, N>& apis, Registry& registry,
                   std::string_view registry_path) {
    const std::vector<Token>& code = file.tokens.code;
    for (const auto& api : apis) {
      for_each_match(code, api.pattern, [&](std::size_t i, std::size_t end) {
        // A literal followed by `+` is the static prefix of a
        // runtime-built name and must match a dynamic registry entry.
        const bool concatenated =
            end < code.size() && accepts("+", code[end]);
        resolve_name(registry, registry_path, file, code[i].offset,
                     std::string{code[end - 1].text}, api.kind,
                     concatenated);
      });
    }
  }

  void resolve_name(Registry& reg, std::string_view registry_path,
                    const FileContext& file, std::size_t offset,
                    const std::string& name, std::string_view kind,
                    bool concatenated) {
    if (RegistryEntry* exact = reg.find_exact(name)) {
      if (exact->kind != kind) {
        report(file, offset, kRuleMetricNames,
               "\"" + name + "\" used as " + std::string{kind} +
                   " but registered as " + exact->kind + " in " +
                   std::string{registry_path});
        return;
      }
      exact->used = true;
      return;
    }
    for (auto& entry : reg.entries) {
      if (entry.dynamic_prefix.empty() || entry.kind != kind) continue;
      const bool prefix_match =
          concatenated ? name == entry.dynamic_prefix
                       : name.rfind(entry.dynamic_prefix, 0) == 0;
      if (prefix_match) {
        entry.used = true;
        return;
      }
    }
    report(file, offset, kRuleMetricNames,
           std::string{kind} + " \"" + name + "\" is not in " +
               std::string{registry_path} +
               "; register it (or suppress in tests)");
  }

  // (3) schema-version-consistency: any peerscope.<thing>/<n> inside a
  // string literal must match the schema registry exactly — a bumped
  // writer with an un-bumped reader (or vice versa) fails here.
  void check_schemas(const FileContext& file) {
    constexpr std::string_view kPrefix = "peerscope.";
    for (const Token& token : file.tokens.code) {
      if (token.kind != Token::Kind::kString) continue;
      const std::string_view text = token.text;
      const auto word_end = [&](std::size_t j) {
        while (j < text.size() && is_word(text[j])) ++j;
        return j;
      };
      for (std::size_t at = text.find(kPrefix);
           at != std::string_view::npos; at = text.find(kPrefix, at + 1)) {
        // peerscope.<word>(.<word>)*/<digits>
        std::size_t j = word_end(at + kPrefix.size());
        if (j == at + kPrefix.size()) continue;
        while (j + 1 < text.size() && text[j] == '.' && is_word(text[j + 1])) {
          j = word_end(j + 1);
        }
        if (j + 1 >= text.size() || text[j] != '/' ||
            std::isdigit(static_cast<unsigned char>(text[j + 1])) == 0) {
          continue;
        }
        std::size_t end = j + 1;
        while (end < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[end])) != 0) {
          ++end;
        }
        const std::string literal{text.substr(at, end - at)};
        const std::size_t offset = token.offset + at;
        at = end - 1;
        if (RegistryEntry* entry = schema_registry_->find_exact(literal)) {
          entry->used = true;
          continue;
        }
        report(file, offset, kRuleSchemaVersions,
               "schema string \"" + literal + "\" is not in " +
                   std::string{kSchemaRegistryPath} +
                   "; bump the registry in the same commit");
      }
    }
  }

  // (5) header hygiene: #pragma once present, no using-namespace.
  void check_header_hygiene(const FileContext& file) {
    const std::vector<Token>& code = file.tokens.code;
    bool has_pragma = false;
    for_each_match(code, "# pragma once",
                   [&](std::size_t, std::size_t) { has_pragma = true; });
    if (!has_pragma) {
      report(file, 0, kRuleHeaderHygiene, "header is missing #pragma once");
    }
    report_each(file, kRuleHeaderHygiene,
                {"using namespace",
                 "using-namespace in a header leaks into every includer"});
  }

  // (7) engine-hot-path: src/sim and src/p2p are the per-event hot
  // loop; the calendar queue + slab event pool (DESIGN.md §14) exist
  // so nothing there schedules through std::priority_queue or
  // allocates per event. The compiler happily accepts both, so the
  // regression is only visible as a bench slope — this rule catches it
  // at review time instead. Legit one-time construction sites carry an
  // allow(engine-hot-path) annotation; placement news must use the
  // qualified `::new (ptr)` form, which is recognised and skipped.
  void check_engine_hot_path(const FileContext& file) {
    if (file.rel.rfind("src/sim/", 0) != 0 &&
        file.rel.rfind("src/p2p/", 0) != 0) {
      return;
    }
    static constexpr std::array<Banned, 3> kTokens = {{
        {"std :: priority_queue",
         "std::priority_queue in an engine hot path; schedule through "
         "sim::CalendarQueue (DESIGN.md section 14)"},
        {"std :: make_unique",
         "per-event heap allocation (std::make_unique) in an engine hot "
         "path; use the slab event pool, or annotate a one-time "
         "construction site with allow(engine-hot-path)"},
        {"std :: make_shared",
         "per-event heap allocation (std::make_shared) in an engine hot "
         "path; use the slab event pool, or annotate a one-time "
         "construction site with allow(engine-hot-path)"},
    }};
    for (const auto& banned : kTokens) {
      report_each(file, kRuleEngineHotPath, banned);
    }
    const std::vector<Token>& code = file.tokens.code;
    for_each_match(code, "new", [&](std::size_t i, std::size_t end) {
      // `#include <new>` names the header, not an allocation; `::new
      // (ptr) T` is placement construction into storage the pool
      // already owns — the pattern the pool itself relies on.
      if (i > 0 && accepts("<", code[i - 1])) return;
      if (i > 0 && accepts("::", code[i - 1]) && end < code.size() &&
          accepts("(", code[end])) {
        return;
      }
      report(file, code[i].offset, kRuleEngineHotPath,
             "per-event heap allocation (new) in an engine hot path; use "
             "the slab event pool, write placement news as `::new (ptr)`, "
             "or annotate a one-time construction site with "
             "allow(engine-hot-path)");
    });
  }

  // (8) nondeterministic-iteration, src/ only: a range-for whose range
  // expression mentions an identifier declared anywhere in src/ with
  // an unordered container type. Hash iteration order varies across
  // libstdc++ versions and (for pointer keys) across runs, so any such
  // loop whose effects are order-sensitive breaks the §5.6 determinism
  // contract. Loops that are genuinely order-independent (or sort
  // before consuming) carry `// lint: ordered` on or above the `for`.
  void collect_unordered_names() {
    if (!enabled(kRuleIteration)) return;
    for (const auto& file : files_) {
      if (file->rel.rfind("src/", 0) != 0) continue;
      const std::vector<Token>& code = file->tokens.code;
      for_each_match(
          code,
          "std :: unordered_map|unordered_set|unordered_multimap|"
          "unordered_multiset <",
          [&](std::size_t, std::size_t end) {
            // Balance the template argument list, then take the
            // declared (or accessor) identifier after it.
            std::size_t j = end;
            for (int depth = 1; j < code.size() && depth > 0; ++j) {
              if (accepts("<", code[j])) ++depth;
              if (accepts(">", code[j])) --depth;
            }
            while (j < code.size() && accepts("&|*", code[j])) ++j;
            if (j < code.size() && code[j].kind == Token::Kind::kIdent) {
              unordered_names_.emplace(code[j].text);
            }
          });
    }
  }

  /// Lines covered by a `// lint: ordered` marker (the
  /// nondeterministic-iteration opt-out: "this loop's effects are
  /// order-independent, or the consumer sorts"). Same placement rule as
  /// allow(): trailing a statement covers that line, on a line of its
  /// own covers the next.
  [[nodiscard]] static std::set<std::size_t> ordered_lines(
      const FileContext& file) {
    std::set<std::size_t> out;
    for (const Token& comment : file.tokens.comments) {
      for (std::size_t at = comment.text.find("//");
           at != std::string_view::npos;
           at = comment.text.find("//", at + 1)) {
        std::string_view rest = skip_blanks(comment.text.substr(at + 2));
        if (!consume(rest, "lint:")) continue;
        rest = skip_blanks(rest);
        if (!consume(rest, "ordered") ||
            (!rest.empty() && is_word(rest.front()))) {
          continue;
        }
        const std::size_t offset = comment.offset + at;
        out.insert(file.lines.line_of(offset) +
                   (starts_line(file.source, offset) ? 1 : 0));
      }
    }
    return out;
  }

  void check_iteration(const FileContext& file) {
    if (file.rel.rfind("src/", 0) != 0 || unordered_names_.empty()) {
      return;
    }
    const std::set<std::size_t> ordered = ordered_lines(file);
    const std::vector<Token>& code = file.tokens.code;
    for_each_match(code, "for (", [&](std::size_t i, std::size_t end) {
      // Find the matching close paren and the top-level range `:`
      // (`::` is its own token), if any.
      std::size_t colon = kNoMatch;
      std::size_t close = end;
      for (int depth = 1; close < code.size(); ++close) {
        if (accepts("(", code[close])) ++depth;
        if (accepts(")", code[close]) && --depth == 0) break;
        if (depth == 1 && colon == kNoMatch && accepts(":", code[close])) {
          colon = close;
        }
      }
      if (colon == kNoMatch || close == code.size()) return;
      for (std::size_t k = colon + 1; k < close; ++k) {
        if (code[k].kind != Token::Kind::kIdent ||
            unordered_names_.count(code[k].text) == 0) {
          continue;
        }
        if (ordered.count(file.lines.line_of(code[i].offset)) != 0) return;
        report(file, code[i].offset, kRuleIteration,
               "range-for over unordered container `" +
                   std::string{code[k].text} +
                   "` has no deterministic order; iterate a sorted "
                   "copy, or annotate `// lint: ordered` when the "
                   "loop's effects are order-independent");
        return;
      }
    });
  }

  // (9) rng-discipline, everywhere except src/util/ (which implements
  // the seed-derived stream splitter everything else must use):
  // ambient entropy and wall-clock seeding make replay impossible.
  void check_rng(const FileContext& file) {
    if (file.rel.rfind("src/util/", 0) == 0) return;
    static constexpr std::array<Banned, 3> kTokens = {{
        {"rand|srand (",
         "C rand()/srand() is a hidden global stream; derive a "
         "util::rng stream from the run seed instead"},
        {"std :: random_device",
         "std::random_device is ambient entropy and unreplayable; "
         "derive streams from the run seed (util::rng)"},
        {"time ( nullptr|NULL|0 )",
         "wall-clock seeding breaks fixed-seed replay; derive streams "
         "from the run seed (util::rng)"},
    }};
    for (const auto& banned : kTokens) report_each(file, kRuleRng, banned);
    // A default-constructed engine: `gen;`, `gen{}` or `gen()`.
    const std::vector<Token>& code = file.tokens.code;
    for_each_match(
        code,
        "std :: mt19937|mt19937_64|minstd_rand|minstd_rand0|"
        "default_random_engine|ranlux24|ranlux24_base|ranlux48|"
        "ranlux48_base|knuth_b $id",
        [&](std::size_t i, std::size_t end) {
          if (match_at(code, end, ";") == kNoMatch &&
              match_at(code, end, "{ }") == kNoMatch &&
              match_at(code, end, "( )") == kNoMatch) {
            return;
          }
          report(file, code[i].offset, kRuleRng,
                 "default-constructed random engine hides its seed; seed "
                 "explicitly from the run seed (util::rng)");
        });
  }

  // (10) lock-annotation, src/ + tools/ + bench/: raw std lock types
  // are invisible to clang's -Wthread-safety analysis, so all
  // production locking goes through the annotated util::Mutex wrapper.
  // Tests are exempt (they drive scenarios, not guarded state);
  // src/util/mutex.hpp is the one allowed definition site.
  void check_locks(const FileContext& file) {
    const bool in_scope = file.rel.rfind("src/", 0) == 0 ||
                          file.rel.rfind("tools/", 0) == 0 ||
                          file.rel.rfind("bench/", 0) == 0;
    if (!in_scope || file.rel == "src/util/mutex.hpp") return;
    const std::vector<Token>& code = file.tokens.code;
    for_each_match(
        code,
        "std :: mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
        "shared_mutex|shared_timed_mutex|lock_guard|unique_lock|"
        "scoped_lock|condition_variable|condition_variable_any",
        [&](std::size_t i, std::size_t end) {
          report(file, code[i].offset, kRuleLocks,
                 "std::" + std::string{code[end - 1].text} +
                     " is invisible to clang thread-safety analysis; use "
                     "util::Mutex / util::MutexLock / util::CondVar "
                     "(util/mutex.hpp), or annotate unavoidable std "
                     "interop with allow(lock-annotation)");
        });
  }

  // (11) module-layering, src/ only: `#include "<layer>/..."` edges
  // must stay inside the DAG pinned in tools/layers.def, so a
  // convenience include can never quietly invert a layer boundary.
  void load_layers() {
    if (!enabled(kRuleLayering)) return;
    const fs::path path = options_.root / kLayersPath;
    const auto content = read_file(path);
    if (!content) return;  // opt-in file; absent = rule skipped
    std::map<std::string, std::set<std::string, std::less<>>,
             std::less<>>
        layers;
    std::istringstream in{*content};
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) {
        result_.errors.push_back(
            path.generic_string() + ":" + std::to_string(line_no) +
            ": malformed layer line (want `<layer>: <dep>...`)");
        continue;
      }
      std::istringstream name_in{line.substr(0, colon)};
      std::string name;
      name_in >> name;
      std::istringstream deps{line.substr(colon + 1)};
      auto& into = layers[name];
      std::string dep;
      while (deps >> dep) into.insert(dep);
    }
    layers_ = std::move(layers);
  }

  void check_layering(const FileContext& file) {
    if (file.rel.rfind("src/", 0) != 0) return;
    const std::size_t slash = file.rel.find('/', 4);
    if (slash == std::string::npos) return;  // file directly in src/
    const std::string layer = file.rel.substr(4, slash - 4);
    const auto self = layers_->find(layer);
    if (self == layers_->end()) {
      if (layers_missing_.insert(layer).second) {
        result_.errors.push_back(
            "src/" + layer + "/ is not declared in " +
            std::string{kLayersPath} + "; add the layer and its "
            "dependencies");
      }
      return;
    }
    const std::vector<Token>& code = file.tokens.code;
    for_each_match(code, "# include $str", [&](std::size_t i,
                                               std::size_t end) {
      const std::string_view path = code[end - 1].text;
      const std::size_t cut = path.find('/');
      if (cut == 0 || cut == std::string_view::npos ||
          !std::all_of(path.begin(), path.begin() + cut, is_word)) {
        return;
      }
      const std::string target{path.substr(0, cut)};
      if (target == layer || layers_->count(target) == 0) return;
      if (self->second.count(target) != 0) return;
      report(file, code[i].offset, kRuleLayering,
             "include of \"" + target + "/...\" from layer `" + layer +
                 "` violates " + std::string{kLayersPath} +
                 "; declare the dependency there or invert the edge");
    });
  }

  // --- baseline -------------------------------------------------------

  // Accepted-debt ledger: findings whose fingerprint is listed are
  // suppressed (counted, not printed); entries that match nothing are
  // stale and become findings themselves, so the ledger ratchets
  // toward empty instead of fossilising.
  void apply_baseline() {
    if (options_.baseline.empty()) return;
    const auto content = read_file(options_.baseline);
    if (!content) {
      result_.errors.push_back("cannot read baseline " +
                               options_.baseline.generic_string());
      return;
    }
    struct Entry {
      std::size_t line = 0;
      std::string print;
      std::string rule;
      std::string path;
      bool used = false;
    };
    std::vector<Entry> entries;
    std::istringstream in{*content};
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream fields{line};
      Entry entry;
      entry.line = line_no;
      if (!(fields >> entry.print)) continue;  // blank line
      if (!(fields >> entry.rule >> entry.path) ||
          entry.print.size() != 16 ||
          entry.print.find_first_not_of("0123456789abcdef") !=
              std::string::npos) {
        result_.errors.push_back(
            options_.baseline.generic_string() + ":" +
            std::to_string(line_no) +
            ": malformed baseline line (want `<fingerprint16> <rule> "
            "<path>`)");
        continue;
      }
      entries.push_back(std::move(entry));
    }
    std::vector<Finding> kept;
    kept.reserve(result_.findings.size());
    for (auto& finding : result_.findings) {
      bool suppressed = false;
      for (auto& entry : entries) {
        if (entry.print == finding.fingerprint) {
          entry.used = true;
          suppressed = true;
        }
      }
      if (suppressed) {
        ++result_.baseline_suppressed;
      } else {
        kept.push_back(std::move(finding));
      }
    }
    result_.findings = std::move(kept);
    const std::string rel = rel_of(options_.baseline);
    for (const auto& entry : entries) {
      if (entry.used) continue;
      result_.findings.push_back(
          {options_.baseline, entry.line, entry.rule,
           "baseline entry " + entry.print + " (" + entry.path +
               ") no longer matches any finding; delete the stale line",
           fingerprint(entry.rule, rel, "stale:" + entry.print)});
    }
  }

  // Registry entries nothing referenced: dead metrics/schemas drift
  // out of docs silently, so they are findings too.
  void finish_registries() {
    const auto flag_unused = [&](std::optional<Registry>& registry,
                                 std::string_view rule,
                                 std::string_view what) {
      if (!registry) return;
      for (const auto& entry : registry->entries) {
        if (entry.used) continue;
        result_.findings.push_back(
            {registry->file, entry.line, std::string{rule},
             std::string{what} + " \"" + entry.name +
                 "\" is registered but never used; delete the entry "
                 "or wire the instrumentation",
             fingerprint(rule, rel_of(registry->file),
                         entry.kind + " " + entry.name)});
      }
    };
    if (enabled(kRuleMetricNames)) {
      flag_unused(metric_registry_, kRuleMetricNames, "metric");
      flag_unused(trace_registry_, kRuleMetricNames, "trace event");
    }
    if (enabled(kRuleSchemaVersions)) {
      flag_unused(schema_registry_, kRuleSchemaVersions, "schema");
    }
  }

  // (4) exit-code-uniqueness: kExit* constants in tools/ and src/ (the
  // claim oracle's code lives in src/aware) must be pairwise distinct
  // and every value must appear (backticked) in the README exit-code
  // documentation.
  void check_exit_codes() {
    if (!enabled(kRuleExitCodes)) return;
    struct ExitCode {
      const FileContext* file;
      std::size_t offset;
      std::string name;
      int value;
    };
    std::vector<ExitCode> codes;
    for (const auto& file : files_) {
      if (file->rel.rfind("tools/", 0) != 0 &&
          file->rel.rfind("src/", 0) != 0) {
        continue;
      }
      const std::vector<Token>& code = file->tokens.code;
      for_each_match(code, "constexpr int $id = $num ;",
                     [&](std::size_t i, std::size_t) {
                       const std::string_view name = code[i + 2].text;
                       const std::string value{code[i + 4].text};
                       if (name.rfind("kExit", 0) != 0 ||
                           value.find_first_not_of("0123456789") !=
                               std::string::npos) {
                         return;
                       }
                       codes.push_back({file.get(), code[i].offset,
                                        std::string{name}, std::stoi(value)});
                     });
    }
    for (std::size_t i = 0; i < codes.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (codes[i].value == codes[j].value &&
            codes[i].name != codes[j].name) {
          report(*codes[i].file, codes[i].offset, kRuleExitCodes,
                 codes[i].name + " reuses exit code " +
                     std::to_string(codes[i].value) + " already taken "
                     "by " + codes[j].name);
        }
      }
    }
    const auto readme = read_file(options_.root / "README.md");
    std::set<int> documented;
    // Backticked 1-3 digit numbers: `3`, `11`.
    for (std::size_t at = readme ? readme->find('`') : std::string::npos;
         at != std::string::npos; at = readme->find('`', at + 1)) {
      const std::size_t close = readme->find_first_not_of("0123456789", at + 1);
      if (close == std::string::npos || (*readme)[close] != '`' ||
          close == at + 1 || close > at + 4) {
        continue;
      }
      documented.insert(std::stoi(readme->substr(at + 1, close - at - 1)));
      at = close;
    }
    for (const auto& code : codes) {
      if (documented.count(code.value) != 0) continue;
      report(*code.file, code.offset, kRuleExitCodes,
             code.name + " = " + std::to_string(code.value) +
                 " is not documented in the README exit-code table");
    }

    // Registry sub-check (tools/exit_codes.def, optional): names and
    // values are pinned both ways, so adding a code — the discovery
    // "degraded" status being the motivating case — forces the
    // registry (and through it the docs review) in the same commit.
    const fs::path registry_path = options_.root / kExitCodeRegistryPath;
    const auto registry_text = read_file(registry_path);
    if (!registry_text) return;
    struct RegistryCode {
      std::size_t line;
      std::string name;
      int value;
      bool used = false;
    };
    std::vector<RegistryCode> registered;
    std::size_t line_no = 0;
    std::istringstream lines{*registry_text};
    for (std::string line; std::getline(lines, line);) {
      ++line_no;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream fields{line};
      int value = 0;
      std::string name;
      if (!(fields >> value >> name)) continue;
      registered.push_back({line_no, name, value});
    }
    for (const auto& code : codes) {
      bool found = false;
      for (auto& entry : registered) {
        if (entry.name != code.name) continue;
        entry.used = true;
        found = true;
        if (entry.value != code.value) {
          report(*code.file, code.offset, kRuleExitCodes,
                 code.name + " = " + std::to_string(code.value) +
                     " disagrees with " +
                     std::string{kExitCodeRegistryPath} + " (" +
                     std::to_string(entry.value) + ")");
        }
      }
      if (!found) {
        report(*code.file, code.offset, kRuleExitCodes,
               code.name + " is not registered in " +
                   std::string{kExitCodeRegistryPath} +
                   "; add it in the same commit");
      }
    }
    for (const auto& entry : registered) {
      if (entry.used) continue;
      result_.findings.push_back(
          {registry_path, entry.line, std::string{kRuleExitCodes},
           "exit code \"" + entry.name +
               "\" is registered but no tools/ constant (nor a src/ one) "
               "defines it; delete the entry or restore the constant",
           fingerprint(kRuleExitCodes, rel_of(registry_path),
                       entry.name)});
    }
  }

  // (6) committed build artifacts: what `git ls-files` says is
  // tracked, filtered by check_tracked_paths. Best effort — outside a
  // git checkout the rule is silently skipped.
  [[nodiscard]] std::vector<std::string> tracked_files() const {
    const std::string cmd = "git -C \"" + options_.root.string() +
                            "\" ls-files 2>/dev/null";
    const std::unique_ptr<std::FILE, int (*)(std::FILE*)> pipe{
        ::popen(cmd.c_str(), "r"), ::pclose};
    std::vector<std::string> out;
    if (!pipe) return out;
    std::string line;
    int c = 0;
    while ((c = std::fgetc(pipe.get())) != EOF) {
      if (c == '\n') {
        if (!line.empty()) out.push_back(std::move(line));
        line.clear();
      } else {
        line.push_back(static_cast<char>(c));
      }
    }
    if (!line.empty()) out.push_back(std::move(line));
    return out;
  }

  Options options_;
  LintResult result_;
  std::vector<std::unique_ptr<FileContext>> files_;
  std::optional<Registry> metric_registry_;
  std::optional<Registry> trace_registry_;
  std::optional<Registry> schema_registry_;
  /// Identifiers declared anywhere in src/ with an unordered container
  /// type (members, locals, params, accessor names).
  std::set<std::string, std::less<>> unordered_names_;
  /// tools/layers.def: layer -> allowed dependency layers. nullopt =
  /// no file, rule skipped.
  std::optional<std::map<std::string, std::set<std::string, std::less<>>,
                         std::less<>>>
      layers_;
  std::set<std::string, std::less<>> layers_missing_;
};

}  // namespace

std::vector<std::string_view> rule_names() {
  return {kRuleRawIo,         kRuleMetricNames,   kRuleSchemaVersions,
          kRuleExitCodes,     kRuleHeaderHygiene, kRuleBuildArtifacts,
          kRuleEngineHotPath, kRuleIteration,     kRuleRng,
          kRuleLocks,         kRuleLayering};
}

std::string_view rule_description(std::string_view rule) {
  if (rule == kRuleRawIo) {
    return "artifact writes route through util::write_file_atomic and "
           "src/ reads through the util::io fault shim";
  }
  if (rule == kRuleMetricNames) {
    return "metric and trace-event name literals match src/obs/"
           "metric_names.def / trace_names.def, both directions";
  }
  if (rule == kRuleSchemaVersions) {
    return "peerscope.<thing>/<n> schema strings match "
           "src/obs/schema_versions.def exactly";
  }
  if (rule == kRuleExitCodes) {
    return "kExit* constants in tools/ and src/ stay unique, "
           "README-documented, and pinned in tools/exit_codes.def";
  }
  if (rule == kRuleHeaderHygiene) {
    return "headers carry #pragma once and never using-namespace";
  }
  if (rule == kRuleBuildArtifacts) {
    return "build trees, objects, and generated databases are never "
           "committed";
  }
  if (rule == kRuleEngineHotPath) {
    return "no std::priority_queue or per-event heap allocation in "
           "src/sim and src/p2p (DESIGN.md section 14)";
  }
  if (rule == kRuleIteration) {
    return "range-for over an unordered container in src/ needs a "
           "`// lint: ordered` order-independence annotation";
  }
  if (rule == kRuleRng) {
    return "no rand()/std::random_device/wall-clock seeding or "
           "default-constructed engines outside src/util";
  }
  if (rule == kRuleLocks) {
    return "raw std lock types bypass the annotated util::Mutex "
           "wrapper that clang thread-safety analysis checks";
  }
  if (rule == kRuleLayering) {
    return "src/ #include edges stay inside the layer DAG pinned in "
           "tools/layers.def";
  }
  return {};
}

std::string fingerprint(std::string_view rule, std::string_view rel_path,
                        std::string_view key) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&hash](std::string_view text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;  // FNV prime
    }
    hash *= 1099511628211ull;  // NUL separator (xor with 0 is a no-op)
  };
  mix(rule);
  mix(rel_path);
  mix(key);
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0;) {
    out[i] = "0123456789abcdef"[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

std::string to_string(const Finding& finding) {
  std::string out = finding.file.generic_string();
  if (finding.line != 0) {
    out += ":" + std::to_string(finding.line);
  }
  out += ": [" + finding.rule + "] " + finding.message;
  return out;
}

TokenStream tokenize(std::string_view source) {
  TokenStream out;
  const std::size_t size = source.size();
  const auto emit = [&](Token::Kind kind, std::size_t from, std::size_t to) {
    to = std::min(to, size);
    auto& into = kind == Token::Kind::kComment ? out.comments : out.code;
    into.push_back({kind, from, source.substr(from, to - from)});
  };
  std::size_t i = 0;
  while (i < size) {
    const char c = source[i];
    const char next = i + 1 < size ? source[i + 1] : '\0';
    const std::size_t start = i;
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
    } else if (c == '/' && next == '/') {
      i = std::min(source.find('\n', i), size);
      emit(Token::Kind::kComment, start, i);
    } else if (c == '/' && next == '*') {
      i = std::min(source.find("*/", i + 2), size - 2) + 2;
      emit(Token::Kind::kComment, start, i);
    } else if (c == '"' || c == '\'') {
      for (++i; i < size && source[i] != c; ++i) {
        if (source[i] == '\\') ++i;
      }
      emit(c == '"' ? Token::Kind::kString : Token::Kind::kChar, start + 1,
           i);
      ++i;
    } else if (is_word(c) || (c == '.' && std::isdigit(
                                               static_cast<unsigned char>(
                                                   next)) != 0)) {
      // A pp-number takes `.`, digit separators and exponent signs.
      const bool number = std::isdigit(static_cast<unsigned char>(c)) != 0 ||
                          c == '.';
      for (++i; i < size; ++i) {
        const char d = source[i];
        const bool sign = (d == '+' || d == '-') &&
                          std::string_view{"eEpP"}.find(source[i - 1]) !=
                              std::string_view::npos;
        const bool separator =
            d == '\'' && i + 1 < size && is_word(source[i + 1]);
        if (!is_word(d) && !(number && (d == '.' || sign || separator))) {
          break;
        }
      }
      if (!number && source[i - 1] == 'R' && i < size && source[i] == '"') {
        // Raw string R"delim( ... )delim", any encoding prefix.
        const std::size_t open = std::min(source.find('(', i), size);
        const std::string close =
            ")" + std::string{source.substr(i + 1, open - i - 1)} + "\"";
        const std::size_t end = std::min(source.find(close, open + 1), size);
        emit(Token::Kind::kString, std::min(open + 1, size), end);
        i = std::min(end + close.size(), size);
      } else {
        emit(number ? Token::Kind::kNumber : Token::Kind::kIdent, start, i);
      }
    } else {
      i += c == ':' && next == ':' ? 2 : 1;
      emit(Token::Kind::kPunct, start, i);
    }
  }
  return out;
}

std::vector<Finding> check_tracked_paths(
    const std::vector<std::string>& tracked) {
  std::vector<Finding> out;
  // build/ and build-<variant>/ only — a directory that merely starts
  // with "build" (builders/) is not a build tree.
  for (const auto& path : tracked) {
    std::string why;
    const std::size_t slash = path.rfind('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::string_view after_build =
        path.rfind("build", 0) == 0 ? std::string_view{path}.substr(5)
                                    : std::string_view{};
    if (after_build.substr(0, 1) == "/" ||
        (after_build.substr(0, 1) == "-" &&
         after_build.find('/') != std::string_view::npos)) {
      why = "build tree is committed; add it to .gitignore and "
            "git rm -r --cached it";
    } else if (path.size() >= 2 &&
               (path.compare(path.size() - 2, 2, ".o") == 0 ||
                path.compare(path.size() - 2, 2, ".a") == 0)) {
      why = "compiled object/archive is committed";
    } else if (base == "compile_commands.json") {
      why = "generated compile database is committed";
    } else if (base == "core") {
      why = "core dump is committed";
    }
    if (!why.empty()) {
      std::string print = fingerprint(kRuleBuildArtifacts, path, why);
      out.push_back({path, 0, std::string{kRuleBuildArtifacts},
                     std::move(why), std::move(print)});
    }
  }
  return out;
}

LintResult run(const Options& options) { return Linter{options}.run(); }

std::string to_sarif(const LintResult& result,
                     const std::filesystem::path& root) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"peerscope-lint\",\n"
      "          \"rules\": [\n";
  const auto rules = rule_names();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += "            {\"id\": " + util::json::quote(rules[i]) +
           ", \"shortDescription\": {\"text\": " +
           util::json::quote(rule_description(rules[i])) + "}}";
    out += i + 1 < rules.size() ? ",\n" : "\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& finding = result.findings[i];
    std::error_code ec;
    std::filesystem::path rel =
        std::filesystem::relative(finding.file, root, ec);
    if (ec || rel.empty()) rel = finding.file;
    out += "        {\n";
    out += "          \"ruleId\": " + util::json::quote(finding.rule) +
           ",\n";
    out += "          \"level\": \"error\",\n";
    out += "          \"message\": {\"text\": " +
           util::json::quote(finding.message) + "},\n";
    out += "          \"partialFingerprints\": {\"peerscopeLint/v1\": " +
           util::json::quote(finding.fingerprint) + "},\n";
    out += "          \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": " +
           util::json::quote(rel.generic_string()) + "}";
    if (finding.line != 0) {
      out += ", \"region\": {\"startLine\": " +
             std::to_string(finding.line) + "}";
    }
    out += "}}]\n";
    out += i + 1 < result.findings.size() ? "        },\n"
                                          : "        }\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace peerscope::lint
