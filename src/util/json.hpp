#pragma once
// The repo's one JSON layer: a value tree with a strict recursive-descent
// parser and a deterministic serializer, plus the two streaming helpers
// every JSON writer shares (the svc wire protocol, the obs trace and
// metrics exporters).
//
// Objects preserve insertion (and source) order, and numbers serialize
// through one fixed format that round-trips every finite double exactly,
// so the same value tree always dumps to the same bytes — the property the
// same-seed determinism checks (loadgen digests, fleet export digests,
// cross-shard and cross-thread byte comparisons) rest on.
//
// The parser follows RFC 8259: its number grammar (no `+7`, `.5`, `01` or
// `1.`), no raw control characters inside strings, raw string bytes that
// are well-formed UTF-8 only (RFC 3629: no stray continuation bytes,
// overlong forms, encoded surrogates, code points above U+10FFFF or
// truncated sequences), and `\uXXXX` escapes decoded to UTF-8, surrogate
// pairs included (a lone surrogate is an error). Numbers that overflow a
// double are rejected. No comments, and
// 1 MiB-scale documents only (the svc wire layer caps frames before text
// reaches here).

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace edacloud::util {

/// Append `text` as a JSON string token, quotes included: `"` and `\`
/// escaped, `\n`, `\r`, `\t` as themselves, other control characters as
/// `\u00XX`; every other byte is copied as is.
void append_json_string(std::string& out, std::string_view text);

/// Append `value` as a JSON number: integral values below 1e15 in
/// magnitude print as integers, everything else as `%.17g` (which parses
/// back to the same double), and non-finite values as `0`. No locale
/// dependence.
void append_json_number(std::string& out, double value);

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  static JsonValue null() { return JsonValue(); }
  static JsonValue of(bool value) {
    JsonValue v;
    v.type_ = Type::kBool;
    v.bool_ = value;
    return v;
  }
  static JsonValue of(double value) {
    JsonValue v;
    v.type_ = Type::kNumber;
    v.number_ = value;
    return v;
  }
  static JsonValue of(int value) { return of(static_cast<double>(value)); }
  static JsonValue of(std::uint64_t value) {
    return of(static_cast<double>(value));
  }
  static JsonValue of(std::string value) {
    JsonValue v;
    v.type_ = Type::kString;
    v.string_ = std::move(value);
    return v;
  }
  static JsonValue of(const char* value) { return of(std::string(value)); }
  static JsonValue array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] double as_number(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }

  // ---- arrays ----
  [[nodiscard]] std::size_t size() const {
    return is_object() ? members_.size() : items_.size();
  }
  [[nodiscard]] const JsonValue& at(std::size_t index) const {
    return items_[index];
  }
  JsonValue& push_back(JsonValue value) {
    items_.push_back(std::move(value));
    return items_.back();
  }

  // ---- objects ----
  /// Member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Insert-or-overwrite, preserving first-insertion order.
  JsonValue& set(std::string_view key, JsonValue value);
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const {
    return members_;
  }

  // Typed member conveniences (fallback when absent or wrong type).
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;

  /// Compact deterministic serialization (no whitespace, numbers through
  /// append_json_number, object members in insertion order).
  [[nodiscard]] std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members_;  // kObject
};

struct JsonParseResult {
  bool ok = false;
  JsonValue value;
  std::string error;
};

/// Parse one JSON document; trailing non-whitespace is an error.
[[nodiscard]] JsonParseResult parse_json(std::string_view text);

}  // namespace edacloud::util
