// The one strict integer parser for command-line flags, environment
// knobs and text artifacts.
//
// std::strtoull / std::atoll accept far too much: leading whitespace,
// a '+' or a '-' that wraps an unsigned value ("-5" becomes
// 18446744073709551611), trailing garbage ("2x" is 2, "banana" is 0),
// and out-of-range input that saturates or wraps silently. parse_int
// accepts exactly one base-10 token that fits T and [lo, hi], nothing
// before it and nothing after it. What a caller does with nullopt
// (exit 4, exit 2, throw, skip the record) is the caller's policy.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace peerscope::util {

/// `text` as a T in [lo, hi]; nullopt for an empty token, any byte
/// outside the number (signs included for unsigned T, '+' always), or
/// a value that overflows T or leaves the range.
template <std::integral T>
[[nodiscard]] std::optional<T> parse_int(
    std::string_view text, T lo = std::numeric_limits<T>::min(),
    T hi = std::numeric_limits<T>::max()) {
  if (text.empty()) return std::nullopt;
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

}  // namespace peerscope::util
