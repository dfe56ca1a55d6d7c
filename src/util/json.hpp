// The one JSON dialect PeerScope writes and reads back.
//
// Every JSON artifact — metrics.json, trace.json, status.json, the run
// journal, bench snapshots, the lint SARIF report — escapes its strings
// through append_string, and every reader of those artifacts (journal
// replay, `watch`, `trace-summary`, `bench-diff`) parses through
// parse(). The reader is strict: one RFC 8259 value, nesting bounded
// by kMaxDepth, nothing but whitespace after it. What a caller does
// with a document that fails to parse (skip the line, count it, return
// nullopt, throw) is the caller's policy, not this module's.
#pragma once

#include <concepts>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/parse_int.hpp"

namespace peerscope::util::json {

/// Appends `text` as a quoted JSON string. `"` and `\` get a
/// backslash, every byte below 0x20 becomes `\u00XX` (lowercase hex),
/// and all other bytes, non-ASCII UTF-8 included, pass through as-is.
void append_string(std::string& out, std::string_view text);

/// append_string into a fresh string.
[[nodiscard]] std::string quote(std::string_view text);

/// Deepest array/object nesting parse() accepts. PeerScope documents
/// nest at most a handful of levels; the bound keeps hostile input
/// from exhausting the stack.
inline constexpr std::size_t kMaxDepth = 64;

/// Thrown by parse() for any input that is not exactly one JSON value;
/// the message names the byte offset where parsing stopped.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One parsed JSON value. Accessors never throw: asking for the wrong
/// type yields nullopt (or a null value / empty list), so a reader
/// states each field it needs and rejects the document if one is
/// missing.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  /// The first member named `key`; a null value when this is not an
  /// object or has no such member, so lookups chain:
  /// `doc["args"]["value"]`.
  [[nodiscard]] const Value& operator[](std::string_view key) const;

  /// Array elements, or object member values in document order; empty
  /// for scalars.
  [[nodiscard]] const std::vector<Value>& items() const noexcept {
    return items_;
  }

  [[nodiscard]] std::optional<std::string_view> string() const;
  [[nodiscard]] std::optional<double> number() const;

  /// The number as a T when it is written as an integer (no fraction,
  /// no exponent) and fits T's range; nullopt otherwise.
  template <std::integral T>
  [[nodiscard]] std::optional<T> integer() const {
    if (kind_ != Kind::kNumber) return std::nullopt;
    return parse_int<T>(text_);
  }

 private:
  friend class Parser;

  Kind kind_ = Kind::kNull;
  /// Decoded string or number literal.
  std::string text_;
  /// Object member names, parallel to items_.
  std::vector<std::string> keys_;
  std::vector<Value> items_;
};

/// Parses exactly one JSON value from `text`. Throws ParseError on
/// malformed input, nesting deeper than kMaxDepth, or trailing bytes.
[[nodiscard]] Value parse(std::string_view text);

/// parse(), with malformed input read as a null value: for readers
/// that skip or reject a damaged document by the fields it lacks.
[[nodiscard]] Value parse_or_null(std::string_view text);

}  // namespace peerscope::util::json
