// Property/fuzz layer for the svc codec (ISSUE 9 satellite): seeded random
// mutations, truncations and chunkings of the JSON parser, the request
// validator and the frame decoder must never crash, hang, or accept
// garbage silently — every outcome is either a parse error or a valid
// value, and every accepted document survives a parse -> dump -> parse
// round trip as a fixed point. The suite runs under ASan/UBSan and TSan in
// scripts/check.sh (SvcFuzzTest in the sanitizer regexes); all randomness
// flows through util::Rng with fixed seeds so a failure replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "svc/protocol.hpp"
#include "svc/wire.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace edacloud::svc {
namespace {

using util::JsonParseResult;
using util::JsonValue;
using util::parse_json;

/// Representative wire-shaped documents used as mutation seeds: every
/// request type, nesting, escapes, numbers in all the formats the dumper
/// emits, and a few documents that are already invalid.
const std::vector<std::string>& seed_documents() {
  static const std::vector<std::string> kDocs = {
      R"({"type":"characterize","id":1,"family":"adder","size":64})",
      R"({"type":"predict","id":2,"family":"alu","size":32,"job":"routing"})",
      R"({"type":"optimize","id":3,"family":"max","size":16,)"
      R"("deadline_s":120.5,"spot":true})",
      R"({"type":"run-stage","id":4,"family":"voter","size":16,)"
      R"("stage":"place"})",
      R"({"type":"tune","id":5,"family":"mem_ctrl","size":32,)"
      R"("deadline_s":60,"samples":8,"seed":7,"batch":16})",
      R"({"type":"echo","id":6,"payload":"hi \"there\"\n","sleep_ms":0})",
      R"({"a":[1,2.5,-3e4,0.0001,true,false,null,"x"],"b":{"c":[[]],"d":{}}})",
      R"([{"k":"v"},[],"\\\"\t\r",1e-9,-0])",
      "  42  ",
      "\"lone string\"",
      "{\"unterminated\":",   // invalid on purpose
      "{]",                   // invalid on purpose
  };
  return kDocs;
}

/// Apply `count` random single-byte edits (replace / insert / delete).
std::string mutate(const std::string& base, util::Rng& rng, int count) {
  std::string text = base;
  for (int i = 0; i < count && !text.empty(); ++i) {
    const std::size_t at = rng.next_below(text.size());
    switch (rng.next_below(3)) {
      case 0:
        text[at] = static_cast<char>(rng.next_below(256));
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    static_cast<char>(rng.next_below(256)));
        break;
      default:
        text.erase(text.begin() + static_cast<std::ptrdiff_t>(at));
        break;
    }
  }
  return text;
}

TEST(SvcFuzzTest, MutatedDocumentsNeverCrashAndRoundTripWhenAccepted) {
  util::Rng rng(0x5eedf00d);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string& base =
        seed_documents()[rng.next_below(seed_documents().size())];
    const std::string text =
        mutate(base, rng, 1 + static_cast<int>(rng.next_below(8)));
    const JsonParseResult result = parse_json(text);
    if (result.ok) {
      ++accepted;
      // Fixed point: dump -> parse -> dump is stable after one hop.
      const std::string once = result.value.dump();
      const JsonParseResult again = parse_json(once);
      ASSERT_TRUE(again.ok) << "dump not reparseable: " << once;
      EXPECT_EQ(again.value.dump(), once) << "dump not a fixed point";
    } else {
      ++rejected;
      EXPECT_FALSE(result.error.empty()) << "rejection without a message";
    }
  }
  // The mutation rate is low enough that both outcomes must occur; if one
  // side is zero the harness is not exercising what it claims to.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SvcFuzzTest, EveryTruncationOfEverySeedParsesOrRejects) {
  // Exhaustive truncation sweep: a prefix of a valid document is usually
  // invalid; the parser must reject it with a message, never crash or
  // accept trailing garbage.
  for (const std::string& base : seed_documents()) {
    for (std::size_t cut = 0; cut <= base.size(); ++cut) {
      const JsonParseResult result = parse_json(base.substr(0, cut));
      if (!result.ok) {
        EXPECT_FALSE(result.error.empty())
            << "silent rejection at cut=" << cut << " of " << base;
      } else {
        // Accepted prefixes must still round-trip.
        const std::string once = result.value.dump();
        EXPECT_TRUE(parse_json(once).ok);
      }
    }
  }
}

TEST(SvcFuzzTest, MutatedRequestsParseOrRejectWithStableCode) {
  util::Rng rng(0xbadc0de5);
  int parsed_ok = 0, parse_rejected = 0, request_rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    // Mutate only the request-shaped seeds (the first six).
    const std::string& base = seed_documents()[rng.next_below(6)];
    const std::string text =
        mutate(base, rng, 1 + static_cast<int>(rng.next_below(4)));
    const JsonParseResult json = parse_json(text);
    if (!json.ok) {
      ++parse_rejected;
      continue;
    }
    const ParsedRequest request = parse_request(json.value);
    if (request.ok) {
      ++parsed_ok;
    } else {
      ++request_rejected;
      // Machine code must be one of the stable constants, never junk.
      const std::string code = request.code;
      EXPECT_TRUE(code == kErrBadRequest || code == kErrUnknownType)
          << "unexpected error code: " << code;
      EXPECT_FALSE(request.error.empty());
    }
  }
  EXPECT_GT(parse_rejected, 0);
  EXPECT_GT(request_rejected, 0);
  EXPECT_GT(parsed_ok + parse_rejected + request_rejected, 0);
}

TEST(SvcFuzzTest, RandomValueTreesRoundTripExactly) {
  util::Rng rng(0x12e2f00);
  // Build random trees bottom-up; dump() -> parse_json -> dump() must be
  // byte-identical (deterministic serializer + insertion-order objects).
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<JsonValue> pool;
    pool.push_back(JsonValue::null());
    pool.push_back(JsonValue::of(true));
    pool.push_back(JsonValue::of(rng.next_double(-1e6, 1e6)));
    pool.push_back(JsonValue::of(static_cast<double>(
        static_cast<std::int64_t>(rng.next_below(1u << 30)) - (1 << 29))));
    std::string text = "s";
    text += std::to_string(rng.next_below(1000));
    pool.push_back(JsonValue::of(std::move(text)));
    for (int step = 0; step < 12; ++step) {
      if (rng.next_bool(0.5)) {
        JsonValue array = JsonValue::array();
        const std::size_t n = rng.next_below(4);
        for (std::size_t i = 0; i < n; ++i) {
          array.push_back(pool[rng.next_below(pool.size())]);
        }
        pool.push_back(array);
      } else {
        JsonValue object = JsonValue::object();
        const std::size_t n = rng.next_below(4);
        for (std::size_t i = 0; i < n; ++i) {
          const JsonValue& value = pool[rng.next_below(pool.size())];
          std::string key = "k";
          key += std::to_string(rng.next_below(6));
          object.set(key, value);
        }
        pool.push_back(object);
      }
    }
    const std::string once = pool.back().dump();
    const JsonParseResult parsed = parse_json(once);
    ASSERT_TRUE(parsed.ok) << once;
    EXPECT_EQ(parsed.value.dump(), once);
  }
}

TEST(SvcFuzzTest, FrameDecoderSurvivesMutatedStreamsInRandomChunkings) {
  util::Rng rng(0xf4a3e5);
  for (int iter = 0; iter < 600; ++iter) {
    // A valid multi-frame stream...
    std::string stream;
    const std::size_t frames = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < frames; ++f) {
      stream += encode_frame(std::string(rng.next_below(200), 'x'));
    }
    // ...mutated (possibly corrupting length words) and truncated.
    std::string bytes = mutate(stream, rng, static_cast<int>(rng.next_below(6)));
    if (rng.next_bool(0.3) && !bytes.empty()) {
      bytes.resize(rng.next_below(bytes.size()));
    }

    FrameDecoder decoder;
    std::size_t fed = 0;
    std::size_t popped = 0;
    while (fed < bytes.size()) {
      const std::size_t chunk =
          std::min(bytes.size() - fed, 1 + rng.next_below(64));
      decoder.feed(bytes.data() + fed, chunk);
      fed += chunk;
      std::string payload;
      // next() must terminate: each pop consumes >= 4 buffered bytes.
      while (decoder.next(&payload)) {
        ++popped;
        ASSERT_LE(payload.size(), kMaxFramePayload);
        ASSERT_LE(popped, bytes.size());  // hard loop bound
      }
    }
    if (decoder.error()) {
      // Error state is sticky and rejects further frames.
      decoder.feed(encode_frame("ok"));
      std::string payload;
      EXPECT_FALSE(decoder.next(&payload));
      EXPECT_GT(decoder.rejected_length(), kMaxFramePayload);
    } else {
      // Whatever remains buffered is an incomplete tail, under the cap.
      EXPECT_LE(decoder.buffered(), kMaxFramePayload + 4);
    }
  }
}

TEST(SvcFuzzTest, FrameDecoderTreatsEveryPrefixOfAValidStreamSafely) {
  // Truncation property: a prefix of a valid stream yields a prefix of the
  // frame sequence and never enters the error state.
  std::string stream;
  std::vector<std::string> payloads;
  for (int f = 0; f < 5; ++f) {
    payloads.push_back(std::string(37 * (f + 1), static_cast<char>('a' + f)));
    stream += encode_frame(payloads.back());
  }
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(stream.substr(0, cut));
    EXPECT_FALSE(decoder.error());
    std::string payload;
    std::size_t index = 0;
    while (decoder.next(&payload)) {
      ASSERT_LT(index, payloads.size());
      EXPECT_EQ(payload, payloads[index]);
      ++index;
    }
    // Exactly the frames whose bytes are fully inside the prefix.
    std::size_t expect = 0, offset = 0;
    for (const std::string& p : payloads) {
      offset += 4 + p.size();
      if (offset <= cut) ++expect;
    }
    EXPECT_EQ(index, expect) << "cut=" << cut;
  }
}

TEST(SvcFuzzTest, OversizedLengthWordIsRejectedBeforeBuffering) {
  // A hostile length word must flip the decoder to the error state without
  // buffering gigabytes; buffered() stays at the four length bytes.
  FrameDecoder decoder;
  const std::uint32_t huge = (1u << 24);  // 16 MiB > kMaxFramePayload
  const char header[4] = {
      static_cast<char>(huge >> 24), static_cast<char>((huge >> 16) & 0xff),
      static_cast<char>((huge >> 8) & 0xff), static_cast<char>(huge & 0xff)};
  decoder.feed(header, sizeof(header));
  std::string payload;
  EXPECT_FALSE(decoder.next(&payload));
  EXPECT_TRUE(decoder.error());
  EXPECT_EQ(decoder.rejected_length(), huge);
  EXPECT_LE(decoder.buffered(), 4u);
}

}  // namespace
}  // namespace edacloud::svc
