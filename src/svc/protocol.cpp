#include "svc/protocol.hpp"

#include <cmath>
#include <initializer_list>

#include "tune/tuner.hpp"
#include "workloads/registry.hpp"

namespace edacloud::svc {

namespace {

bool known_family(const std::string& name) {
  for (const auto& info : workloads::families()) {
    if (info.name == name) return true;
  }
  return false;
}

/// Pull a positive integer member; false (with message) on bad shape.
bool require_size(const JsonValue& value, ParsedRequest& out) {
  const double size = value.number_or("size", -1.0);
  if (size < 1.0 || size != std::floor(size) || size > 1e9) {
    out.error = "field 'size' must be a positive integer";
    return false;
  }
  out.request.size = static_cast<int>(size);
  return true;
}

/// Strict member-set validation: any field outside `allowed` (plus the
/// common type/id/deadline_ms trio) fails the parse with a stable
/// bad_request message naming the offender. Catches client typos that
/// would otherwise be silently ignored (the svc_test satellite gap).
bool reject_unknown_fields(const JsonValue& value,
                           std::initializer_list<const char*> allowed,
                           ParsedRequest& out) {
  for (const auto& [key, member] : value.members()) {
    if (key == "type" || key == "id" || key == "deadline_ms") continue;
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      out.error = "unknown field '" + key + "'";
      return false;
    }
  }
  return true;
}

/// Pull an integer member in [lo, hi] into *slot (keeping its default when
/// absent); false (with message) on bad shape or range.
bool optional_int_in(const JsonValue& value, const char* name, double lo,
                     double hi, int* slot, ParsedRequest& out) {
  if (value.find(name) == nullptr) return true;
  const double raw = value.number_or(name, lo - 1.0);
  if (raw < lo || raw > hi || raw != std::floor(raw)) {
    out.error = "field '" + std::string(name) + "' must be an integer in [" +
                std::to_string(static_cast<long long>(lo)) + ", " +
                std::to_string(static_cast<long long>(hi)) + "]";
    return false;
  }
  *slot = static_cast<int>(raw);
  return true;
}

bool require_design(const JsonValue& value, ParsedRequest& out) {
  out.request.family = value.string_or("family", "");
  if (out.request.family.empty()) {
    out.error = "field 'family' is required";
    return false;
  }
  if (!known_family(out.request.family)) {
    out.error = "unknown family '" + out.request.family + "'";
    return false;
  }
  return require_size(value, out);
}

}  // namespace

const char* to_string(RequestType type) {
  switch (type) {
    case RequestType::kCharacterize:
      return "characterize";
    case RequestType::kPredict:
      return "predict";
    case RequestType::kOptimize:
      return "optimize";
    case RequestType::kRunStage:
      return "run-stage";
    case RequestType::kEcho:
      return "echo";
    case RequestType::kTune:
      return "tune";
  }
  return "?";
}

bool job_from_name(const std::string& name, core::JobKind* out) {
  if (name == "synthesis" || name == "synth") {
    *out = core::JobKind::kSynthesis;
  } else if (name == "placement" || name == "place") {
    *out = core::JobKind::kPlacement;
  } else if (name == "routing" || name == "route") {
    *out = core::JobKind::kRouting;
  } else if (name == "sta") {
    *out = core::JobKind::kSta;
  } else {
    return false;
  }
  return true;
}

ParsedRequest parse_request(const JsonValue& value) {
  ParsedRequest out;
  if (!value.is_object()) {
    out.error = "request must be a JSON object";
    return out;
  }
  // Salvage the id first so even malformed requests get correlated replies.
  const double id = value.number_or("id", 0.0);
  if (id >= 0.0 && id == std::floor(id)) {
    out.request.id = static_cast<std::uint64_t>(id);
  }
  out.request.deadline_ms = value.number_or("deadline_ms", 0.0);
  if (out.request.deadline_ms < 0.0) {
    out.error = "field 'deadline_ms' must be >= 0";
    return out;
  }

  const std::string type = value.string_or("type", "");
  if (type == "characterize") {
    out.request.type = RequestType::kCharacterize;
    if (!reject_unknown_fields(value, {"family", "size"}, out)) return out;
    if (!require_design(value, out)) return out;
  } else if (type == "predict") {
    out.request.type = RequestType::kPredict;
    if (!reject_unknown_fields(value, {"family", "size", "job"}, out)) {
      return out;
    }
    if (!require_design(value, out)) return out;
    const std::string job = value.string_or("job", "");
    if (!job_from_name(job, &out.request.job)) {
      out.error = "field 'job' must be synthesis|placement|routing|sta";
      return out;
    }
  } else if (type == "optimize") {
    out.request.type = RequestType::kOptimize;
    if (!reject_unknown_fields(value, {"family", "size", "deadline_s", "spot"},
                               out)) {
      return out;
    }
    if (!require_design(value, out)) return out;
    out.request.deadline_seconds = value.number_or("deadline_s", 0.0);
    if (out.request.deadline_seconds <= 0.0) {
      out.error = "field 'deadline_s' must be > 0";
      return out;
    }
    out.request.spot = value.bool_or("spot", false);
  } else if (type == "run-stage") {
    out.request.type = RequestType::kRunStage;
    if (!reject_unknown_fields(value, {"family", "size", "stage"}, out)) {
      return out;
    }
    if (!require_design(value, out)) return out;
    const std::string stage = value.string_or("stage", "");
    if (!job_from_name(stage, &out.request.stage)) {
      out.error = "field 'stage' must be synth|place|route|sta";
      return out;
    }
  } else if (type == "tune") {
    out.request.type = RequestType::kTune;
    if (!reject_unknown_fields(
            value,
            {"family", "size", "deadline_s", "spot", "samples", "seed",
             "batch"},
            out)) {
      return out;
    }
    if (!require_design(value, out)) return out;
    out.request.deadline_seconds = value.number_or("deadline_s", 0.0);
    if (out.request.deadline_seconds <= 0.0) {
      out.error = "field 'deadline_s' must be > 0";
      return out;
    }
    out.request.spot = value.bool_or("spot", false);
    if (!optional_int_in(value, "samples", 0.0, tune::kMaxRandomSamples,
                         &out.request.samples, out)) {
      return out;
    }
    if (!optional_int_in(value, "batch", tune::kMinBatchSize,
                         tune::kMaxBatchSize, &out.request.batch, out)) {
      return out;
    }
    if (value.find("seed") != nullptr) {
      const double seed = value.number_or("seed", -1.0);
      if (seed < 0.0 || seed != std::floor(seed) || seed > 1e15) {
        out.error = "field 'seed' must be a non-negative integer";
        return out;
      }
      out.request.tune_seed = static_cast<std::uint64_t>(seed);
    }
  } else if (type == "echo") {
    out.request.type = RequestType::kEcho;
    if (!reject_unknown_fields(value, {"payload", "sleep_ms"}, out)) {
      return out;
    }
    out.request.payload = value.string_or("payload", "");
    const double sleep_ms = value.number_or("sleep_ms", 0.0);
    if (sleep_ms < 0.0 || sleep_ms > 60000.0) {
      out.error = "field 'sleep_ms' must be in [0, 60000]";
      return out;
    }
    out.request.sleep_ms = static_cast<int>(sleep_ms);
  } else if (type.empty()) {
    out.error = "field 'type' is required";
    return out;
  } else {
    out.error = "unknown request type '" + type + "'";
    out.code = kErrUnknownType;
    return out;
  }
  out.ok = true;
  return out;
}

std::string error_response(std::uint64_t id, const char* code,
                           const std::string& message) {
  JsonValue response = JsonValue::object();
  response.set("id", JsonValue::of(id));
  response.set("ok", JsonValue::of(false));
  response.set("error", JsonValue::of(code));
  response.set("message", JsonValue::of(message));
  return response.dump();
}

JsonValue response_header(const Request& request) {
  JsonValue response = JsonValue::object();
  response.set("id", JsonValue::of(request.id));
  response.set("ok", JsonValue::of(true));
  response.set("type", JsonValue::of(to_string(request.type)));
  return response;
}

}  // namespace edacloud::svc
