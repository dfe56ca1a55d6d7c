// The shared JSON dialect (util/json.hpp): the escape table every
// writer uses, and the strict reader every artifact reader uses.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace peerscope::util::json {
namespace {

bool parses(std::string_view text) {
  try {
    (void)parse(text);
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

TEST(JsonEscape, QuotesBackslashesAndControlBytesOnly) {
  EXPECT_EQ(quote("plain"), "\"plain\"");
  EXPECT_EQ(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(quote(std::string{"\x00\x01\n\x1f", 4}),
            "\"\\u0000\\u0001\\u000a\\u001f\"");
  // DEL, '/' and UTF-8 pass through unescaped.
  EXPECT_EQ(quote("\x7f/\xc3\xa9"), "\"\x7f/\xc3\xa9\"");
  std::string out = "x";
  append_string(out, "y");
  EXPECT_EQ(out, "x\"y\"");
}

TEST(JsonEscape, EveryByteRoundTripsThroughTheReader) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(parse(quote(all)).string(), all);
}

TEST(JsonParse, ReadsEveryKind) {
  const Value doc = parse(
      R"( {"s": "x\"\\\/\b\f\n\r\té😀", "n": -12.5e1,
           "i": 42, "t": true, "f": false, "z": null,
           "a": [1, "two", [], {}], "o": {"k": "v"}} )");
  EXPECT_EQ(doc.kind(), Value::Kind::kObject);
  EXPECT_EQ(doc["s"].string(),
            "x\"\\/\b\f\n\r\t\xc3\xa9\xf0\x9f\x98\x80");
  EXPECT_EQ(doc["n"].number(), -125.0);
  EXPECT_EQ(doc["i"].integer<int>(), 42);
  EXPECT_EQ(doc["t"].kind(), Value::Kind::kBool);
  EXPECT_EQ(doc["f"].kind(), Value::Kind::kBool);
  EXPECT_EQ(doc["z"].kind(), Value::Kind::kNull);
  ASSERT_EQ(doc["a"].items().size(), 4u);
  EXPECT_EQ(doc["a"].items()[1].string(), "two");
  EXPECT_EQ(doc["a"].items()[2].kind(), Value::Kind::kArray);
  EXPECT_EQ(doc["o"]["k"].string(), "v");
}

TEST(JsonParse, LookupsOnTheWrongKindAreEmptyNotErrors) {
  const Value doc = parse(R"({"a": 1, "a": 2, "s": "x"})");
  EXPECT_EQ(doc["a"].integer<int>(), 1);  // first member wins
  EXPECT_EQ(doc["missing"].kind(), Value::Kind::kNull);
  EXPECT_EQ(doc["missing"]["deeper"].kind(), Value::Kind::kNull);
  EXPECT_FALSE(doc["s"].number().has_value());
  EXPECT_FALSE(doc["a"].string().has_value());
  EXPECT_TRUE(doc["s"].items().empty());
  EXPECT_EQ(doc.items().size(), 3u);
}

TEST(JsonParse, IntegerAccessorsAreRangeChecked) {
  EXPECT_FALSE(parse("99999999999").integer<int>().has_value());
  EXPECT_EQ(parse("99999999999").integer<std::int64_t>(), 99999999999);
  EXPECT_FALSE(parse("-1").integer<std::uint64_t>().has_value());
  EXPECT_EQ(parse("-1").integer<int>(), -1);
  EXPECT_EQ(parse("18446744073709551615").integer<std::uint64_t>(),
            UINT64_MAX);
  EXPECT_FALSE(
      parse("18446744073709551616").integer<std::uint64_t>().has_value());
  // A fraction or exponent is not an integer, whatever its value.
  EXPECT_FALSE(parse("1.0").integer<int>().has_value());
  EXPECT_FALSE(parse("1e3").integer<int>().has_value());
  EXPECT_EQ(parse("1e3").number(), 1000.0);
  EXPECT_FALSE(parse("\"7\"").integer<int>().has_value());
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", " ", "{", "}", "[1,]", "[,1]", R"({"a":1,})", R"({"a" 1})",
        "{1:2}", "[1 2]", "01", "-", "1.", ".5", "1e", "+1", "tru", "nul",
        "True", R"("\x")", R"("unterminated)", R"("\u12")", R"("\ud800")",
        R"("\udc00")", R"("\ud800A")", "\"raw\x01\"", "\"tab\t\"",
        "'single'", "[1]]", "1 2", "{} x", "nan", "Infinity"}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
}

TEST(JsonParse, SurroundingWhitespaceIsAllowed) {
  EXPECT_TRUE(parses(" \t\r\n{}\n"));
  EXPECT_TRUE(parses("[ 1 , 2 ]"));
}

TEST(JsonParse, NestingStopsAtTheDepthBound) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(parses(nested(kMaxDepth)));
  try {
    (void)parse(nested(kMaxDepth + 1));
    FAIL() << "expected a depth error";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string{error.what()}.find("depth"), std::string::npos);
    EXPECT_NE(std::string{error.what()}.find(
                  "at byte " + std::to_string(kMaxDepth)),
              std::string::npos);
  }
}

TEST(JsonParse, ErrorsCarryTheByteOffset) {
  try {
    (void)parse(R"({"a": tru})");
    FAIL() << "expected a parse error";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string{error.what()}.find("at byte 6"),
              std::string::npos);
  }
}

TEST(JsonParse, ParseOrNullMapsMalformedInputToNull) {
  EXPECT_EQ(parse_or_null("{\"torn").kind(), Value::Kind::kNull);
  EXPECT_EQ(parse_or_null("{\"k\":3}")["k"].integer<int>(), 3);
}

}  // namespace
}  // namespace peerscope::util::json
