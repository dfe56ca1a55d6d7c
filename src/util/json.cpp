#include "util/json.hpp"

#include <charconv>
#include <cstdint>
#include <system_error>

namespace peerscope::util::json {

void append_string(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string quote(std::string_view text) {
  std::string out;
  append_string(out, text);
  return out;
}

const Value& Value::operator[](std::string_view key) const {
  static const Value kAbsent;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return items_[i];
  }
  return kAbsent;
}

std::optional<std::string_view> Value::string() const {
  if (kind_ != Kind::kString) return std::nullopt;
  return text_;
}

std::optional<double> Value::number() const {
  if (kind_ != Kind::kNumber) return std::nullopt;
  double value = 0;
  const char* end = text_.data() + text_.size();
  const auto [stop, error] = std::from_chars(text_.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

/// Recursive-descent reader over one document; depth is the number of
/// arrays/objects enclosing the value being read.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value value = read_value(0);
    skip_space();
    if (pos_ != text_.size()) fail("trailing bytes after the value");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw ParseError("json: " + std::string{what} + " at byte " +
                     std::to_string(pos_));
  }

  [[nodiscard]] bool at(char c) const {
    return pos_ < text_.size() && text_[pos_] == c;
  }

  [[nodiscard]] bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  bool consume(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  void expect(char c, const char* what) {
    if (!consume(c)) fail(what);
  }

  void skip_space() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  Value read_value(std::size_t depth) {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    Value value;
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth >= kMaxDepth) fail("nesting deeper than the depth bound");
      read_container(value, c == '{', depth + 1);
    } else if (c == '"') {
      value.kind_ = Value::Kind::kString;
      value.text_ = read_string();
    } else if (c == '-' || at_digit()) {
      value.kind_ = Value::Kind::kNumber;
      value.text_ = read_number();
    } else if (c == 't' || c == 'f') {
      value.kind_ = Value::Kind::kBool;
      read_word(c == 't' ? "true" : "false");
    } else if (c == 'n') {
      read_word("null");
    } else {
      fail("unexpected character");
    }
    return value;
  }

  void read_container(Value& value, bool object, std::size_t depth) {
    value.kind_ = object ? Value::Kind::kObject : Value::Kind::kArray;
    const char close = object ? '}' : ']';
    ++pos_;
    skip_space();
    if (consume(close)) return;
    do {
      if (object) {
        skip_space();
        if (!at('"')) fail("expected a member name");
        value.keys_.push_back(read_string());
        skip_space();
        expect(':', "expected ':' after a member name");
      }
      value.items_.push_back(read_value(depth));
      skip_space();
    } while (consume(','));
    expect(close, object ? "expected ',' or '}'" : "expected ',' or ']'");
  }

  void read_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("unknown literal");
    pos_ += word.size();
  }

  std::string read_number() {
    const std::size_t start = pos_;
    consume('-');
    if (!consume('0')) read_digits();
    if (consume('.')) read_digits();
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      read_digits();
    }
    return std::string{text_.substr(start, pos_ - start)};
  }

  void read_digits() {
    if (!at_digit()) fail("expected a digit");
    while (at_digit()) ++pos_;
  }

  std::string read_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in a string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated string");
      static constexpr std::string_view kEscape = "\"\\/bfnrt";
      static constexpr std::string_view kByte = "\"\\/\b\f\n\r\t";
      const char escape = text_[pos_++];
      if (escape == 'u') {
        append_utf8(out, read_code_point());
      } else if (const auto at = kEscape.find(escape); at != kEscape.npos) {
        out += kByte[at];
      } else {
        fail("unknown escape");
      }
    }
  }

  /// The code point of a \u escape whose "\u" was just consumed,
  /// joining a UTF-16 surrogate pair into one.
  std::uint32_t read_code_point() {
    const std::uint32_t unit = read_hex4();
    if (unit >= 0xdc00 && unit <= 0xdfff) fail("unpaired low surrogate");
    if (unit < 0xd800 || unit > 0xdbff) return unit;
    if (!consume('\\') || !consume('u')) fail("unpaired high surrogate");
    const std::uint32_t low = read_hex4();
    if (low < 0xdc00 || low > 0xdfff) fail("unpaired high surrogate");
    return 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
  }

  std::uint32_t read_hex4() {
    if (text_.size() - pos_ < 4) fail("truncated \\u escape");
    std::uint32_t unit = 0;
    const char* begin = text_.data() + pos_;
    const auto [stop, error] = std::from_chars(begin, begin + 4, unit, 16);
    if (error != std::errc{} || stop != begin + 4) fail("bad \\u escape");
    pos_ += 4;
    return unit;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
      return;
    }
    // Lead byte 110xxxxx / 1110xxxx / 11110xxx, then 10xxxxxx each.
    const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(((0xffu << (7 - tail)) & 0xffu) |
                             (cp >> (6 * tail)));
    for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
      out += static_cast<char>(0x80u | ((cp >> shift) & 0x3fu));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text) { return Parser{text}.document(); }

Value parse_or_null(std::string_view text) {
  try {
    return parse(text);
  } catch (const ParseError&) {
    return {};
  }
}

}  // namespace peerscope::util::json
