// Tests for the serving subsystem: wire framing, request parsing, Service
// dispatch, and loopback JobServer integration — including the
// determinism contract (same-seed responses byte-identical across
// server thread counts) that scripts/check.sh re-checks end-to-end.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <memory>
#include <string>
#include <vector>

#include "svc/client.hpp"
#include "svc/loadgen.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"
#include "util/json.hpp"

namespace edacloud::svc {
namespace {

using util::JsonParseResult;
using util::JsonValue;
using util::parse_json;

// ---------------------------------------------------------------- wire --

TEST(SvcWireTest, EncodeDecodeRoundTrip) {
  FrameDecoder decoder;
  decoder.feed(encode_frame("hello") + encode_frame("") +
               encode_frame("world"));
  std::string out;
  ASSERT_TRUE(decoder.next(&out));
  EXPECT_EQ(out, "hello");
  ASSERT_TRUE(decoder.next(&out));
  EXPECT_EQ(out, "");
  ASSERT_TRUE(decoder.next(&out));
  EXPECT_EQ(out, "world");
  EXPECT_FALSE(decoder.next(&out));
  EXPECT_FALSE(decoder.error());
}

TEST(SvcWireTest, TruncatedFrameWaitsForMoreBytes) {
  const std::string frame = encode_frame("payload");
  FrameDecoder decoder;
  std::string out;
  // Byte-at-a-time delivery: no frame until the last byte lands.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.feed(frame.data() + i, 1);
    EXPECT_FALSE(decoder.next(&out));
  }
  decoder.feed(frame.data() + frame.size() - 1, 1);
  ASSERT_TRUE(decoder.next(&out));
  EXPECT_EQ(out, "payload");
}

TEST(SvcWireTest, OversizedLengthIsRejectedBeforeBuffering) {
  // 0xFFFFFFFF declared length — far beyond kMaxFramePayload.
  const char header[4] = {'\xFF', '\xFF', '\xFF', '\xFF'};
  FrameDecoder decoder;
  decoder.feed(header, sizeof(header));
  std::string out;
  EXPECT_FALSE(decoder.next(&out));
  EXPECT_TRUE(decoder.error());
  EXPECT_EQ(decoder.rejected_length(), 0xFFFFFFFFu);
  // Error state is sticky; further bytes are not buffered.
  decoder.feed("more bytes");
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_FALSE(decoder.next(&out));
}

TEST(SvcWireTest, MaxPayloadExactlyAtLimitIsAccepted) {
  const std::string payload(kMaxFramePayload, 'x');
  FrameDecoder decoder;
  decoder.feed(encode_frame(payload));
  std::string out;
  ASSERT_TRUE(decoder.next(&out));
  EXPECT_EQ(out.size(), kMaxFramePayload);
  EXPECT_FALSE(decoder.error());
}

// ------------------------------------------------------------ protocol --

TEST(SvcProtocolTest, ParsesValidPredict) {
  const JsonParseResult json = parse_json(
      "{\"id\":7,\"type\":\"predict\",\"family\":\"adder\","
      "\"size\":32,\"job\":\"routing\"}");
  ASSERT_TRUE(json.ok) << json.error;
  const ParsedRequest parsed = parse_request(json.value);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.id, 7u);
  EXPECT_EQ(parsed.request.type, RequestType::kPredict);
  EXPECT_EQ(parsed.request.family, "adder");
  EXPECT_EQ(parsed.request.size, 32);
  EXPECT_EQ(parsed.request.job, core::JobKind::kRouting);
}

TEST(SvcProtocolTest, RejectsBadRequestsWithSalvagedId) {
  struct Case {
    const char* text;
    const char* code;
  };
  const Case cases[] = {
      {"{\"id\":3}", kErrBadRequest},  // no type
      {"{\"id\":3,\"type\":\"frobnicate\"}", kErrUnknownType},
      {"{\"id\":3,\"type\":\"predict\",\"family\":\"nope\",\"size\":8,"
       "\"job\":\"sta\"}",
       kErrBadRequest},  // unknown family
      {"{\"id\":3,\"type\":\"predict\",\"family\":\"adder\","
       "\"size\":-1,\"job\":\"sta\"}",
       kErrBadRequest},  // bad size
      {"{\"id\":3,\"type\":\"optimize\",\"family\":\"adder\","
       "\"size\":8}",
       kErrBadRequest},  // missing deadline_s
      {"{\"id\":3,\"type\":\"echo\",\"sleep_ms\":999999}", kErrBadRequest},
  };
  for (const Case& c : cases) {
    const JsonParseResult json = parse_json(c.text);
    ASSERT_TRUE(json.ok) << c.text;
    const ParsedRequest parsed = parse_request(json.value);
    EXPECT_FALSE(parsed.ok) << c.text;
    EXPECT_EQ(parsed.request.id, 3u) << c.text;  // id salvaged for the reply
    EXPECT_STREQ(parsed.code, c.code) << c.text;
  }
}

TEST(SvcProtocolTest, RejectsIdsADoubleCannotHold) {
  // 2^53 + 1 parses to the double 2^53, and 1e20 overflows uint64_t; both
  // used to be answered with a different id than the client sent.
  Service service;
  for (const char* id : {"9007199254740993", "9007199254740992", "1e20",
                         "-1", "1.5", "\"7\"", "null"}) {
    const std::string text =
        std::string("{\"type\":\"echo\",\"id\":") + id + "}";
    const JsonParseResult json = parse_json(text);
    ASSERT_TRUE(json.ok) << text;
    const ParsedRequest parsed = parse_request(json.value);
    EXPECT_FALSE(parsed.ok) << text;
    EXPECT_EQ(parsed.request.id, 0u) << text;
    EXPECT_STREQ(parsed.code, kErrBadRequest) << text;

    const JsonParseResult reply = parse_json(service.handle_payload(text));
    ASSERT_TRUE(reply.ok) << text;
    EXPECT_EQ(reply.value.number_or("id", -1.0), 0.0) << text;
    EXPECT_EQ(reply.value.string_or("error", ""), "bad_request") << text;
  }
  // The largest id a double holds exactly is echoed digit for digit.
  const std::string top = service.handle_payload(
      "{\"type\":\"echo\",\"id\":9007199254740991}");
  EXPECT_NE(top.find("{\"id\":9007199254740991,\"ok\":true"),
            std::string::npos)
      << top;
}

TEST(SvcProtocolTest, BoundsDeadlineMs) {
  for (const char* deadline : {"1e300", "86400000.5", "-1"}) {
    const std::string text =
        std::string("{\"type\":\"echo\",\"id\":3,\"deadline_ms\":") +
        deadline + "}";
    const JsonParseResult json = parse_json(text);
    ASSERT_TRUE(json.ok) << text;
    const ParsedRequest parsed = parse_request(json.value);
    EXPECT_FALSE(parsed.ok) << text;
    EXPECT_EQ(parsed.request.id, 3u) << text;
    EXPECT_STREQ(parsed.code, kErrBadRequest) << text;
  }
  const JsonParseResult top = parse_json(
      "{\"type\":\"echo\",\"id\":3,\"deadline_ms\":86400000}");
  ASSERT_TRUE(top.ok);
  const ParsedRequest parsed = parse_request(top.value);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.deadline_ms, kMaxDeadlineMs);
}

TEST(SvcProtocolTest, InvalidUtf8PayloadIsABadRequest) {
  // Raw bytes 0xFF 0xFE once came back verbatim in the echo reply, which
  // made the reply invalid JSON text.
  Service service;
  const std::string reply = service.handle_payload(
      "{\"type\":\"echo\",\"id\":4,\"payload\":\"\xFF\xFE\"}");
  EXPECT_EQ(reply.find('\xFF'), std::string::npos) << reply;
  const JsonParseResult parsed = parse_json(reply);
  ASSERT_TRUE(parsed.ok) << reply;
  EXPECT_EQ(parsed.value.string_or("error", ""), "bad_request") << reply;
}

TEST(SvcProtocolTest, RejectsUnknownMemberFields) {
  // A typo'd field must never be silently ignored (ISSUE 9 satellite):
  // each request type rejects members outside its schema with a stable
  // bad_request code naming the offending key.
  struct Case {
    const char* text;
    const char* field;
  };
  const Case cases[] = {
      {"{\"id\":3,\"type\":\"predict\",\"family\":\"adder\",\"size\":8,"
       "\"job\":\"sta\",\"frobnicate\":1}",
       "frobnicate"},
      {"{\"id\":3,\"type\":\"echo\",\"payload\":\"x\",\"famly\":\"adder\"}",
       "famly"},  // typo of a real field elsewhere in the schema
      {"{\"id\":3,\"type\":\"characterize\",\"family\":\"adder\",\"size\":8,"
       "\"job\":\"sta\"}",
       "job"},  // valid field, wrong request type
      {"{\"id\":3,\"type\":\"tune\",\"family\":\"adder\",\"size\":8,"
       "\"deadline_s\":60,\"smaples\":4}",
       "smaples"},
  };
  for (const Case& c : cases) {
    const JsonParseResult json = parse_json(c.text);
    ASSERT_TRUE(json.ok) << c.text;
    const ParsedRequest parsed = parse_request(json.value);
    EXPECT_FALSE(parsed.ok) << c.text;
    EXPECT_STREQ(parsed.code, kErrBadRequest) << c.text;
    EXPECT_NE(parsed.error.find(std::string("unknown field '") + c.field),
              std::string::npos)
        << c.text << " -> " << parsed.error;
    EXPECT_EQ(parsed.request.id, 3u) << c.text;
  }
}

TEST(SvcProtocolTest, ParsesValidTuneWithDefaults) {
  const JsonParseResult json = parse_json(
      "{\"id\":4,\"type\":\"tune\",\"family\":\"mem_ctrl\",\"size\":32,"
      "\"deadline_s\":90.5,\"samples\":8,\"seed\":11,\"batch\":16,"
      "\"spot\":true}");
  ASSERT_TRUE(json.ok) << json.error;
  const ParsedRequest parsed = parse_request(json.value);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.type, RequestType::kTune);
  EXPECT_EQ(parsed.request.family, "mem_ctrl");
  EXPECT_EQ(parsed.request.size, 32);
  EXPECT_EQ(parsed.request.deadline_seconds, 90.5);
  EXPECT_EQ(parsed.request.samples, 8);
  EXPECT_EQ(parsed.request.tune_seed, 11u);
  EXPECT_EQ(parsed.request.batch, 16);
  EXPECT_TRUE(parsed.request.spot);

  // Knobs are optional; defaults survive when omitted.
  const JsonParseResult minimal = parse_json(
      "{\"id\":5,\"type\":\"tune\",\"family\":\"adder\",\"size\":16,"
      "\"deadline_s\":60}");
  ASSERT_TRUE(minimal.ok);
  const ParsedRequest defaults = parse_request(minimal.value);
  ASSERT_TRUE(defaults.ok) << defaults.error;
  EXPECT_EQ(defaults.request.samples, 16);
  EXPECT_EQ(defaults.request.tune_seed, 1u);
  EXPECT_EQ(defaults.request.batch, 64);
}

TEST(SvcProtocolTest, RejectsTuneKnobsOutOfRange) {
  // samples in [0, 512], batch in [1, 4096], seed a non-negative integer —
  // each violation is a stable bad_request, never a clamp or a crash.
  const char* cases[] = {
      "{\"id\":3,\"type\":\"tune\",\"family\":\"adder\",\"size\":8,"
      "\"deadline_s\":60,\"samples\":-1}",
      "{\"id\":3,\"type\":\"tune\",\"family\":\"adder\",\"size\":8,"
      "\"deadline_s\":60,\"samples\":513}",
      "{\"id\":3,\"type\":\"tune\",\"family\":\"adder\",\"size\":8,"
      "\"deadline_s\":60,\"samples\":2.5}",
      "{\"id\":3,\"type\":\"tune\",\"family\":\"adder\",\"size\":8,"
      "\"deadline_s\":60,\"batch\":0}",
      "{\"id\":3,\"type\":\"tune\",\"family\":\"adder\",\"size\":8,"
      "\"deadline_s\":60,\"batch\":4097}",
      "{\"id\":3,\"type\":\"tune\",\"family\":\"adder\",\"size\":8,"
      "\"deadline_s\":60,\"seed\":-4}",
      "{\"id\":3,\"type\":\"tune\",\"family\":\"adder\",\"size\":8,"
      "\"deadline_s\":0}",
      "{\"id\":3,\"type\":\"tune\",\"family\":\"adder\",\"size\":8}",
  };
  for (const char* text : cases) {
    const JsonParseResult json = parse_json(text);
    ASSERT_TRUE(json.ok) << text;
    const ParsedRequest parsed = parse_request(json.value);
    EXPECT_FALSE(parsed.ok) << text;
    EXPECT_STREQ(parsed.code, kErrBadRequest) << text;
    EXPECT_FALSE(parsed.error.empty()) << text;
  }
}

TEST(SvcProtocolTest, ErrorResponseShape) {
  const std::string reply = error_response(9, kErrOverloaded, "queue full");
  const JsonParseResult parsed = parse_json(reply);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.value.number_or("id", 0.0), 9.0);
  EXPECT_FALSE(parsed.value.bool_or("ok", true));
  EXPECT_EQ(parsed.value.string_or("error", ""), "overloaded");
  EXPECT_EQ(parsed.value.string_or("message", ""), "queue full");
}

// ------------------------------------------------------------- service --

Request echo_request(std::uint64_t id, int sleep_ms = 0) {
  Request request;
  request.type = RequestType::kEcho;
  request.id = id;
  request.sleep_ms = sleep_ms;
  return request;
}

std::string echo_payload(std::uint64_t id, int sleep_ms = 0,
                         double deadline_ms = 0.0) {
  JsonValue v = JsonValue::object();
  v.set("id", JsonValue::of(id));
  v.set("type", JsonValue::of("echo"));
  v.set("payload", JsonValue::of("p" + std::to_string(id)));
  if (sleep_ms > 0) v.set("sleep_ms", JsonValue::of(sleep_ms));
  if (deadline_ms > 0.0) v.set("deadline_ms", JsonValue::of(deadline_ms));
  return v.dump();
}

TEST(SvcServiceTest, EchoAndErrorPathsWorkUntrained) {
  Service service;  // no initialize(): echo must still work
  const std::string ok = service.handle_payload(
      "{\"id\":1,\"type\":\"echo\",\"payload\":\"ping\"}");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  EXPECT_NE(ok.find("ping"), std::string::npos);

  const std::string bad_json = service.handle_payload("{nope");
  EXPECT_NE(bad_json.find("\"error\":\"bad_request\""), std::string::npos)
      << bad_json;

  const std::string untrained = service.handle_payload(
      "{\"id\":2,\"type\":\"predict\",\"family\":\"adder\","
      "\"size\":16,\"job\":\"sta\"}");
  EXPECT_NE(untrained.find("\"error\":\"internal\""), std::string::npos)
      << untrained;
  EXPECT_EQ(service.stats().errors.load(), 1u);
}

TEST(SvcServiceTest, PredictIsDeterministicPerRequest) {
  ServiceConfig config;
  config.train_designs = 2;
  config.train_epochs = 2;
  Service service(config);
  service.initialize();
  const std::string request =
      "{\"id\":5,\"type\":\"predict\",\"family\":\"adder\","
      "\"size\":16,\"job\":\"synthesis\"}";
  const std::string first = service.handle_payload(request);
  const std::string second = service.handle_payload(request);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_EQ(first, second);
}

TEST(SvcServiceTest, TuneHappyPathIsDeterministicPerRequest) {
  ServiceConfig config;
  config.train_designs = 2;
  config.train_epochs = 2;
  Service service(config);
  service.initialize();
  const std::string request =
      "{\"id\":8,\"type\":\"tune\",\"family\":\"adder\",\"size\":16,"
      "\"deadline_s\":60,\"samples\":2,\"seed\":3,\"batch\":8}";
  const std::string first = service.handle_payload(request);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_NE(first.find("\"savings_vs_fixed_usd\""), std::string::npos);
  EXPECT_NE(first.find("\"joint_at_qor\""), std::string::npos);
  EXPECT_NE(first.find("\"frontier\""), std::string::npos);
  // Cached predictions are bit-identical to the miss path, so a repeat of
  // the same request (now warm) serializes to the same bytes.
  const std::string second = service.handle_payload(request);
  EXPECT_EQ(first, second);
  EXPECT_EQ(
      service.stats().by_type[static_cast<int>(RequestType::kTune)].load(),
      2u);
}

TEST(SvcServiceTest, StatsCountByType) {
  Service service;
  (void)service.handle(echo_request(1));
  (void)service.handle(echo_request(2));
  EXPECT_EQ(service.stats().requests.load(), 2u);
  EXPECT_EQ(
      service.stats().by_type[static_cast<int>(RequestType::kEcho)].load(),
      2u);
}

// -------------------------------------------------------------- server --

class SvcServerTest : public ::testing::Test {
 protected:
  /// Start a server over `service` and connect one client to it.
  void start(Service& service, ServerConfig config) {
    server_ = std::make_unique<JobServer>(service, config);
    std::string error;
    ASSERT_TRUE(server_->listen(&error)) << error;
    server_->start();
    std::string connect_error;
    ASSERT_TRUE(client_.connect("127.0.0.1", server_->port(), &connect_error))
        << connect_error;
  }

  void TearDown() override {
    client_.close();
    if (server_) server_->stop_and_join();
  }

  Service service_;
  std::unique_ptr<JobServer> server_;
  Client client_;
};

TEST_F(SvcServerTest, EchoRoundTrip) {
  start(service_, ServerConfig{});
  std::string response;
  ASSERT_TRUE(client_.roundtrip(echo_payload(1), &response));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("p1"), std::string::npos);
}

TEST_F(SvcServerTest, MalformedJsonGetsErrorReply) {
  start(service_, ServerConfig{});
  std::string response;
  ASSERT_TRUE(client_.roundtrip("this is not json", &response));
  EXPECT_NE(response.find("\"error\":\"bad_request\""), std::string::npos)
      << response;
  EXPECT_EQ(server_->stats().protocol_errors.load(), 1u);
  // The connection survives a malformed payload (frame boundary intact).
  ASSERT_TRUE(client_.roundtrip(echo_payload(2), &response));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
}

TEST_F(SvcServerTest, OversizedFrameAnsweredThenClosed) {
  start(service_, ServerConfig{});
  std::string response;
  ASSERT_TRUE(client_.roundtrip(echo_payload(1), &response));
  // Declared length 2 MiB > kMaxFramePayload: no frame boundary remains, so
  // the server replies once and hangs up.
  const std::uint32_t huge = 2u << 20;
  std::string header;
  for (int shift = 24; shift >= 0; shift -= 8) {
    header.push_back(static_cast<char>((huge >> shift) & 0xFF));
  }
  ASSERT_GT(::send(client_.fd(), header.data(), header.size(), 0), 0);
  ASSERT_TRUE(client_.recv(&response));
  EXPECT_NE(response.find("exceeds limit"), std::string::npos) << response;
  // Server closes after flushing the error: next recv sees EOF.
  EXPECT_FALSE(client_.recv(&response));
  EXPECT_EQ(server_->stats().protocol_errors.load(), 1u);
}

TEST_F(SvcServerTest, OverloadShedsWithExplicitReply) {
  ServerConfig config;
  config.threads = 1;
  config.max_queue = 1;
  start(service_, config);
  // Pipeline 5 slow echoes: one dispatches, the rest exceed the queue
  // bound and must be answered `overloaded` instead of waiting.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(client_.send(echo_payload(id, /*sleep_ms=*/100)));
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < 5; ++i) {
    std::string response;
    ASSERT_TRUE(client_.recv(&response));
    if (response.find("\"ok\":true") != std::string::npos) ++ok;
    if (response.find("\"error\":\"overloaded\"") != std::string::npos) {
      ++overloaded;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(ok + overloaded, 5);
  EXPECT_EQ(server_->stats().overload_rejections.load(),
            static_cast<std::uint64_t>(overloaded));
}

TEST_F(SvcServerTest, QueuedPastDeadlineAnsweredDeadlineExceeded) {
  ServerConfig config;
  config.threads = 1;
  start(service_, config);
  // First request occupies the single worker for 300 ms; the second
  // carries a 20 ms deadline and must expire in the queue.
  ASSERT_TRUE(client_.send(echo_payload(1, /*sleep_ms=*/300)));
  ASSERT_TRUE(client_.send(echo_payload(2, 0, /*deadline_ms=*/20.0)));
  int deadline_exceeded = 0, ok = 0;
  for (int i = 0; i < 2; ++i) {
    std::string response;
    ASSERT_TRUE(client_.recv(&response));
    if (response.find("\"error\":\"deadline_exceeded\"") !=
        std::string::npos) {
      ++deadline_exceeded;
    }
    if (response.find("\"ok\":true") != std::string::npos) ++ok;
  }
  EXPECT_EQ(deadline_exceeded, 1);
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(server_->stats().deadline_rejections.load(), 1u);
}

TEST_F(SvcServerTest, OutOfRangeDeadlineIsABadRequest) {
  // 1e300 ms once reached an unchecked double -> int64 cast at dispatch
  // (undefined behaviour) and came back `deadline_exceeded`.
  start(service_, ServerConfig{});
  std::string response;
  ASSERT_TRUE(client_.roundtrip(echo_payload(2, 0, /*deadline_ms=*/1e300),
                                &response));
  const JsonParseResult reply = parse_json(response);
  ASSERT_TRUE(reply.ok) << response;
  EXPECT_EQ(reply.value.number_or("id", -1.0), 2.0) << response;
  EXPECT_EQ(reply.value.string_or("error", ""), "bad_request") << response;
  // The largest budget is a deadline that does not expire.
  ASSERT_TRUE(client_.roundtrip(echo_payload(3, 0, kMaxDeadlineMs),
                                &response));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_EQ(server_->stats().deadline_rejections.load(), 0u);
}

TEST_F(SvcServerTest, ConnectionLimitShedsExcessConnections) {
  ServerConfig config;
  config.max_connections = 1;  // the fixture's client takes the only slot
  start(service_, config);
  // Poke the server once so the fixture connection is registered before
  // the over-limit connect below.
  std::string response;
  ASSERT_TRUE(client_.roundtrip(echo_payload(1), &response));
  Client second;
  std::string error;
  ASSERT_TRUE(second.connect("127.0.0.1", server_->port(), &error)) << error;
  // The server answers `overloaded` and closes instead of serving.
  std::string reply;
  ASSERT_TRUE(second.recv(&reply));
  EXPECT_NE(reply.find("\"error\":\"overloaded\""), std::string::npos)
      << reply;
  EXPECT_FALSE(second.recv(&reply));  // closed
  EXPECT_EQ(server_->stats().connections_rejected.load(), 1u);
}

// The tentpole determinism contract: the same request stream answered by a
// 1-thread and an 8-thread server produces byte-identical responses.
TEST(SvcServerDeterminismTest, ResponsesByteIdenticalAcrossThreadCounts) {
  ServiceConfig service_config;
  service_config.train_designs = 2;
  service_config.train_epochs = 2;
  Service service(service_config);
  service.initialize();

  LoadgenConfig gen;
  gen.mix = "predict";
  gen.seed = 11;
  std::vector<std::string> requests;
  for (std::uint64_t id = 1; id <= 12; ++id) {
    requests.push_back(make_request(gen, id));
  }

  auto collect = [&](int threads) {
    ServerConfig config;
    config.threads = threads;
    JobServer server(service, config);
    std::string error;
    EXPECT_TRUE(server.listen(&error)) << error;
    server.start();
    Client client;
    EXPECT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;
    std::vector<std::string> responses;
    for (const std::string& request : requests) {
      std::string response;
      EXPECT_TRUE(client.roundtrip(request, &response));
      responses.push_back(response);
    }
    client.close();
    server.stop_and_join();
    return responses;
  };

  const std::vector<std::string> single = collect(1);
  const std::vector<std::string> eight = collect(8);
  ASSERT_EQ(single.size(), eight.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i], eight[i]) << "request " << i;
    EXPECT_NE(single[i].find("\"ok\":true"), std::string::npos) << single[i];
  }
}

TEST(SvcServerDeterminismTest, HandlePredictBatchMatchesSerial) {
  ServiceConfig service_config;
  service_config.train_designs = 2;
  service_config.train_epochs = 2;
  Service service(service_config);
  service.initialize();

  // Predicts across families/sizes/jobs, with duplicates (the dedup path)
  // and one echo (the non-predict fallback inside the batch handler).
  std::vector<Request> requests;
  const struct {
    const char* family;
    int size;
    core::JobKind job;
  } predicts[] = {
      {"adder", 16, core::JobKind::kSynthesis},
      {"adder", 24, core::JobKind::kSta},
      {"multiplier", 16, core::JobKind::kPlacement},
      {"adder", 16, core::JobKind::kSynthesis},  // duplicate of #0
      {"adder", 16, core::JobKind::kRouting},
  };
  std::uint64_t id = 1;
  for (const auto& p : predicts) {
    Request request;
    request.type = RequestType::kPredict;
    request.id = id++;
    request.family = p.family;
    request.size = p.size;
    request.job = p.job;
    requests.push_back(request);
  }
  requests.push_back(echo_request(id++));

  // Batch first (cold cache: exercises the merged forward pass), then the
  // serial path (cache hits) — both must produce the same bytes.
  const std::vector<std::string> batched =
      service.handle_predict_batch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string serial = service.handle(requests[i]);
    EXPECT_EQ(batched[i], serial) << "request " << i;
    EXPECT_NE(batched[i].find("\"ok\":true"), std::string::npos)
        << batched[i];
  }

  // A fresh uncached service must also agree — proves the equality above
  // is not an artifact of both paths reading the same cache entry.
  Service fresh(service_config);
  fresh.initialize();
  const std::vector<std::string> cold = fresh.handle_predict_batch(requests);
  ASSERT_EQ(cold.size(), batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(cold[i], batched[i]) << "request " << i;
  }
}

TEST(SvcServerDeterminismTest, MicroBatchingByteIdentical) {
  ServiceConfig service_config;
  service_config.train_designs = 2;
  service_config.train_epochs = 2;
  Service service(service_config);
  service.initialize();

  auto run = [&](int batch_max) {
    ServerConfig config;
    config.threads = 2;
    config.batch_max = batch_max;
    JobServer server(service, config);
    std::string error;
    EXPECT_TRUE(server.listen(&error)) << error;
    server.start();

    LoadgenConfig gen;
    gen.port = server.port();
    gen.mix = "predict-heavy";
    gen.seed = 17;
    gen.requests = 32;
    gen.connections = 4;
    const LoadgenReport report = run_loadgen(gen);
    server.stop_and_join();
    EXPECT_EQ(report.transport_errors, 0u);
    EXPECT_EQ(report.sent, 32u);
    return report.export_json();
  };

  // Micro-batching is pure scheduling: the deterministic export (counts +
  // response digest) must not change with batching on or off.
  const std::string unbatched = run(1);
  const std::string batched = run(8);
  EXPECT_EQ(unbatched, batched);
}

// ------------------------------------------------------------- loadgen --

TEST(SvcLoadgenTest, MakeRequestIsPureFunctionOfSeedAndId) {
  LoadgenConfig a;
  a.seed = 3;
  a.mix = "mixed";
  LoadgenConfig b = a;
  for (std::uint64_t id = 1; id <= 50; ++id) {
    EXPECT_EQ(make_request(a, id), make_request(b, id));
  }
  LoadgenConfig other = a;
  other.seed = 4;
  int differing = 0;
  for (std::uint64_t id = 1; id <= 50; ++id) {
    if (make_request(a, id) != make_request(other, id)) ++differing;
  }
  EXPECT_GT(differing, 0);  // different seeds give a different stream
}

TEST(SvcLoadgenTest, GeneratedRequestsParseValid) {
  LoadgenConfig config;
  config.mix = "mixed";
  config.seed = 9;
  config.deadline_ms = 250.0;
  for (std::uint64_t id = 1; id <= 40; ++id) {
    const std::string text = make_request(config, id);
    const JsonParseResult json = parse_json(text);
    ASSERT_TRUE(json.ok) << text;
    const ParsedRequest parsed = parse_request(json.value);
    EXPECT_TRUE(parsed.ok) << text << " -> " << parsed.error;
    EXPECT_EQ(parsed.request.id, id);
    EXPECT_EQ(parsed.request.deadline_ms, 250.0);
  }
}

TEST(SvcLoadgenTest, SameSeedRunsExportIdenticalBytes) {
  Service service;  // echo mix: no training needed
  ServerConfig config;
  config.threads = 4;
  JobServer server(service, config);
  std::string error;
  ASSERT_TRUE(server.listen(&error)) << error;
  server.start();

  LoadgenConfig gen;
  gen.port = server.port();
  gen.mix = "echo";
  gen.seed = 21;
  gen.requests = 30;
  gen.connections = 3;
  const LoadgenReport first = run_loadgen(gen);
  const LoadgenReport second = run_loadgen(gen);
  server.stop_and_join();

  EXPECT_EQ(first.sent, 30u);
  EXPECT_EQ(first.ok, 30u);
  EXPECT_EQ(first.transport_errors, 0u);
  EXPECT_EQ(first.export_json(), second.export_json());
  EXPECT_NE(first.export_json().find("\"digest\""), std::string::npos);
}

TEST(SvcLoadgenTest, OpenLoopMatchesClosedLoopDigest) {
  Service service;
  JobServer server(service, ServerConfig{});
  std::string error;
  ASSERT_TRUE(server.listen(&error)) << error;
  server.start();

  LoadgenConfig gen;
  gen.port = server.port();
  gen.mix = "echo";
  gen.seed = 33;
  gen.requests = 20;
  gen.connections = 2;
  gen.mode = LoadMode::kClosed;
  const LoadgenReport closed = run_loadgen(gen);
  gen.mode = LoadMode::kOpen;
  gen.qps = 500.0;
  const LoadgenReport open = run_loadgen(gen);
  server.stop_and_join();

  // Same ids, same responses — the digest is schedule-independent.
  EXPECT_EQ(closed.export_json(), open.export_json());
}

}  // namespace
}  // namespace edacloud::svc
