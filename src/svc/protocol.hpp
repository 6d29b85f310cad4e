#pragma once
// The svc request/response schema over util::JsonValue (docs/SERVING.md has
// the full spec). A request is one JSON object per frame:
//
//   {"type":"predict","id":7,"family":"adder","size":64,"job":"routing"}
//
// with five real request types (characterize / predict / optimize /
// run-stage / tune) dispatched onto the core APIs, plus "echo" as a
// diagnostic (optional server-side sleep — the overload and deadline
// tests use it). Unknown member fields are rejected with `bad_request`
// (typo'd fields must never be silently ignored).
// Responses echo the id: {"id":7,"ok":true,"type":...,"payload":{...}} or
// {"id":7,"ok":false,"error":"<code>","message":"..."} with the stable
// error codes below.

#include <cstdint>
#include <string>

#include "core/flow.hpp"
#include "util/json.hpp"

namespace edacloud::svc {

enum class RequestType : int {
  kCharacterize = 0,
  kPredict,
  kOptimize,
  kRunStage,
  kEcho,
  kTune,
};

/// Number of request types (sizes the per-type stats arrays).
inline constexpr int kRequestTypeCount = 6;

[[nodiscard]] const char* to_string(RequestType type);

/// Stable machine-readable error codes (the `error` field).
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrUnknownType = "unknown_type";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrDeadlineExceeded = "deadline_exceeded";
inline constexpr const char* kErrInternal = "internal";

/// Largest request id: 2^53 - 1, the top of the integers a double (so
/// every JSON peer) holds exactly.
inline constexpr double kMaxRequestId = 9007199254740991.0;

/// Largest `deadline_ms` a request (or a server default) may carry: one
/// day. It keeps the server's conversion to integer microseconds in range.
inline constexpr double kMaxDeadlineMs = 86400000.0;

struct Request {
  RequestType type = RequestType::kEcho;
  std::uint64_t id = 0;
  // Design selection (characterize / predict / optimize / run-stage).
  std::string family;
  int size = 0;
  // predict: which application's model to query.
  core::JobKind job = core::JobKind::kSynthesis;
  // optimize: deadline for the MCKP plan, and whether to offer spot tiers.
  double deadline_seconds = 0.0;
  bool spot = false;
  // run-stage: how deep into the flow to go ("synth".."sta").
  core::JobKind stage = core::JobKind::kSynthesis;
  // echo diagnostics.
  std::string payload;
  int sleep_ms = 0;
  // tune: seeded random recipe draws beyond the grid, the tuner's RNG
  // seed, and the predict chunk size (results are byte-identical at any
  // batch value; the field only shapes throughput).
  int samples = 16;
  std::uint64_t tune_seed = 1;
  int batch = 64;
  // Per-request deadline budget in milliseconds (0 = none). Enforced at
  // dispatch: a request still queued past its deadline is answered with
  // `deadline_exceeded` instead of being executed.
  double deadline_ms = 0.0;
};

struct ParsedRequest {
  bool ok = false;
  Request request;
  std::string error;                    // human-readable parse failure
  const char* code = kErrBadRequest;    // machine code for the error reply
};

/// Validate and convert one parsed JSON request object. A valid id
/// survives even when another field fails, so error replies can still be
/// correlated; an id outside [0, kMaxRequestId] fails with id 0.
[[nodiscard]] ParsedRequest parse_request(const util::JsonValue& value);

/// {"id":N,"ok":false,"error":code,"message":message} — already dumped.
[[nodiscard]] std::string error_response(std::uint64_t id, const char* code,
                                         const std::string& message);

/// Start of a success reply; the caller attaches "payload" and dumps.
[[nodiscard]] util::JsonValue response_header(const Request& request);

/// "synthesis" / "placement" / "routing" / "sta" <-> JobKind (the wire
/// names; also accepts the short stage aliases synth/place/route).
[[nodiscard]] bool job_from_name(const std::string& name,
                                 core::JobKind* out);

}  // namespace edacloud::svc
