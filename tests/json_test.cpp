// Tests for util::JsonValue and parse_json, the repo's one JSON layer:
// deterministic serialization, the exact number format, and the strict
// RFC 8259 parser (number grammar, control characters, UTF-8 validity,
// \u escapes with surrogate pairs).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace edacloud::util {
namespace {

TEST(JsonTest, RoundTripPreservesValueAndBytes) {
  JsonValue request = JsonValue::object();
  request.set("id", JsonValue::of(std::uint64_t{42}));
  request.set("type", JsonValue::of("predict"));
  request.set("spot", JsonValue::of(true));
  request.set("deadline_s", JsonValue::of(1.5));
  JsonValue sizes = JsonValue::array();
  sizes.push_back(JsonValue::of(1));
  sizes.push_back(JsonValue::of(2));
  request.set("sizes", std::move(sizes));

  const std::string text = request.dump();
  const JsonParseResult parsed = parse_json(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.number_or("id", 0.0), 42.0);
  EXPECT_EQ(parsed.value.string_or("type", ""), "predict");
  EXPECT_TRUE(parsed.value.bool_or("spot", false));
  ASSERT_NE(parsed.value.find("sizes"), nullptr);
  EXPECT_EQ(parsed.value.find("sizes")->size(), 2u);
  // Parse → dump is a fixed point: deterministic serialization.
  EXPECT_EQ(parsed.value.dump(), text);
}

TEST(JsonTest, DumpIsInsertionOrdered) {
  JsonValue a = JsonValue::object();
  a.set("z", JsonValue::of(1));
  a.set("a", JsonValue::of(2));
  EXPECT_EQ(a.dump(), "{\"z\":1,\"a\":2}");
}

TEST(JsonTest, StringEscapesRoundTrip) {
  JsonValue v = JsonValue::object();
  v.set("s", JsonValue::of("line\n\"quote\"\ttab\\slash\rcr\x01"));
  EXPECT_EQ(v.dump(),
            "{\"s\":\"line\\n\\\"quote\\\"\\ttab\\\\slash\\rcr\\u0001\"}");
  const JsonParseResult parsed = parse_json(v.dump());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("s", ""),
            "line\n\"quote\"\ttab\\slash\rcr\x01");
}

TEST(JsonTest, MalformedInputsReportErrors) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1} trailing", "{\"a\" 1}"}) {
    const JsonParseResult parsed = parse_json(bad);
    EXPECT_FALSE(parsed.ok) << "accepted: " << bad;
    EXPECT_FALSE(parsed.error.empty());
  }
}

TEST(JsonTest, UnicodeEscapeDecodesToUtf8) {
  const JsonParseResult parsed = parse_json("{\"s\":\"\\u00e9\"}");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("s", ""), "\xc3\xa9");
}

TEST(JsonTest, NumbersFollowRfc8259Grammar) {
  for (const char* bad : {"+7", ".5", "01", "-01", "1.", "-", "1e", "1e+",
                          "1.e3", "[01]", "{\"a\":1.}", "0x10", "Infinity",
                          "NaN", "--1", "1e400", "-1e400"}) {
    const JsonParseResult parsed = parse_json(bad);
    EXPECT_FALSE(parsed.ok) << "accepted: " << bad;
    EXPECT_FALSE(parsed.error.empty()) << bad;
  }
  const std::vector<std::pair<const char*, double>> good = {
      {"0", 0.0},       {"-0", -0.0},       {"7", 7.0},
      {"0.5", 0.5},     {"-1.25", -1.25},   {"1e3", 1000.0},
      {"1E+3", 1000.0}, {"25e-2", 0.25},    {"-0.0e0", -0.0},
      {"1e-400", 0.0}};
  for (const auto& [text, value] : good) {
    const JsonParseResult parsed = parse_json(text);
    ASSERT_TRUE(parsed.ok) << text << ": " << parsed.error;
    EXPECT_EQ(parsed.value.as_number(1.0), value) << text;
  }
}

TEST(JsonTest, SurrogatePairDecodesToFourByteUtf8) {
  const JsonParseResult parsed = parse_json("\"\\ud83d\\ude00!\"");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.as_string(), "\xF0\x9F\x98\x80!");  // U+1F600
  // The decoded bytes are valid UTF-8, so the dump copies them as they are.
  EXPECT_EQ(parsed.value.dump(), "\"\xF0\x9F\x98\x80!\"");
  const JsonParseResult highest = parse_json("\"\\uDBFF\\uDFFF\"");
  ASSERT_TRUE(highest.ok) << highest.error;
  EXPECT_EQ(highest.value.as_string(), "\xF4\x8F\xBF\xBF");  // U+10FFFF
}

TEST(JsonTest, LoneSurrogatesAreRejected) {
  for (const char* bad :
       {"\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83d\\u0041\"", "\"\\ud83dx\"",
        "\"\\ud83d\\ud83d\"", "\"\\ud83d\\u\"", "\"\\ud83d\\"}) {
    const JsonParseResult parsed = parse_json(bad);
    EXPECT_FALSE(parsed.ok) << "accepted: " << bad;
    EXPECT_FALSE(parsed.error.empty()) << bad;
  }
}

TEST(JsonTest, RawControlCharactersInStringsAreRejected) {
  for (const char* bad : {"\"a\nb\"", "\"tab\there\"", "{\"k\x01\":1}"}) {
    const JsonParseResult parsed = parse_json(bad);
    EXPECT_FALSE(parsed.ok) << "accepted: " << bad;
  }
  // DEL (0x7f) is not a control character in JSON's sense.
  EXPECT_TRUE(parse_json("\"\x7f\"").ok);
}

TEST(JsonTest, InvalidUtf8InStringsIsRejected) {
  // Each body goes between quotes, as a value and as an object key.
  const std::vector<std::string> bad = {
      "\xFF\xFE",             // never valid bytes
      "\x80", "a\xBF",         // lone continuation bytes
      "\xC0\xAF", "\xC1\xBF",  // overlong 2-byte forms
      "\xE0\x80\xAF",          // overlong 3-byte form of '/'
      "\xF0\x8F\xBF\xBF",      // overlong 4-byte form of U+FFFF
      "\xED\xA0\x80",          // encoded high surrogate U+D800
      "\xED\xBF\xBF",          // encoded low surrogate U+DFFF
      "\xF4\x90\x80\x80",      // U+110000, above the last code point
      "\xF5\x80\x80\x80",      // lead byte past 0xF4
      "\xC3",                  // truncated 2-byte sequence
      "\xE2\x82",              // truncated 3-byte sequence
      "\xF0\x9F\x98",          // truncated 4-byte sequence
      "\xE2\x28\xA1",          // bad second byte
  };
  for (const std::string& body : bad) {
    for (const std::string& text :
         {"\"" + body + "\"", "{\"" + body + "\":1}"}) {
      const JsonParseResult parsed = parse_json(text);
      EXPECT_FALSE(parsed.ok) << "accepted: " << testing::PrintToString(text);
      EXPECT_FALSE(parsed.error.empty());
    }
  }
}

TEST(JsonTest, ValidUtf8RoundTrips) {
  // The boundaries of every sequence length: U+0080, U+07FF (2 bytes),
  // U+0800, U+D7FF, U+E000, U+FFFF (3 bytes), U+10000, U+10FFFF (4 bytes),
  // and ordinary text.
  for (const std::string text :
       {"\xC2\x80", "\xDF\xBF", "\xE0\xA0\x80", "\xED\x9F\xBF",
        "\xEE\x80\x80", "\xEF\xBF\xBF", "\xF0\x90\x80\x80",
        "\xF4\x8F\xBF\xBF", "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80"}) {
    const std::string dumped = JsonValue::of(text).dump();
    const JsonParseResult parsed = parse_json(dumped);
    ASSERT_TRUE(parsed.ok) << testing::PrintToString(text) << ": "
                           << parsed.error;
    EXPECT_EQ(parsed.value.as_string(), text);
    EXPECT_EQ(parsed.value.dump(), dumped);
  }
}

void expect_round_trip(double x) {
  const std::string text = JsonValue::of(x).dump();
  const JsonParseResult parsed = parse_json(text);
  ASSERT_TRUE(parsed.ok) << text << ": " << parsed.error;
  ASSERT_EQ(parsed.value.as_number(), x) << text;
}

TEST(JsonTest, EveryFiniteDoubleRoundTripsExactly) {
  Rng rng(0x15ec0de);
  for (int i = 0; i < 20000; ++i) {
    // Uniform bit patterns cover every exponent, both signs and (1 in 2048)
    // subnormals; non-finite patterns serialize as 0 by design.
    const double x = std::bit_cast<double>(rng());
    if (std::isfinite(x)) expect_round_trip(x);
    // Subnormals on purpose: exponent field 0, random mantissa and sign.
    expect_round_trip(
        std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFULL));
    // Magnitudes a metrics export actually holds.
    expect_round_trip(rng.next_double(-1e6, 1e6));
  }
  // Integers on both sides of the 1e15 switch between the two formats,
  // and the edges of the exactly representable integers.
  for (std::int64_t k = -1000; k <= 1000; ++k) {
    expect_round_trip(1e15 + static_cast<double>(k));
    expect_round_trip(-1e15 + static_cast<double>(k));
    expect_round_trip(9007199254740992.0 + static_cast<double>(2 * k));
  }
  expect_round_trip(std::nextafter(1e15, 0.0));
  expect_round_trip(std::nextafter(1e15, 2e15));
  expect_round_trip(1.0 + std::ldexp(1.0, -52));
  expect_round_trip(std::numeric_limits<double>::max());
  expect_round_trip(std::numeric_limits<double>::min());
  expect_round_trip(std::numeric_limits<double>::denorm_min());
  expect_round_trip(-std::numeric_limits<double>::denorm_min());
}

TEST(JsonTest, NonFiniteNumbersSerializeAsZero) {
  std::string out;
  append_json_number(out, std::nan(""));
  out += ',';
  append_json_number(out, -HUGE_VAL);
  EXPECT_EQ(out, "0,0");
}

}  // namespace
}  // namespace edacloud::util
