#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace edacloud::util {

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "0";  // JSON has no NaN/Inf; serialize as 0 rather than fail
    return;
  }
  char buf[40];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  out += buf;
}

namespace {

/// Length of the well-formed UTF-8 sequence (RFC 3629 §4) that starts with
/// the byte >= 0x80 at text[pos], or 0 when none does.
std::size_t utf8_sequence_length(std::string_view text, std::size_t pos) {
  const auto byte = [&](std::size_t i) -> unsigned {
    return pos + i < text.size() ? static_cast<unsigned char>(text[pos + i])
                                 : 0U;
  };
  const unsigned lead = byte(0);
  std::size_t length = 0;
  unsigned lo = 0x80;  // range of the second byte
  unsigned hi = 0xBF;
  if (lead >= 0xC2 && lead <= 0xDF) {
    length = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    length = 3;
    if (lead == 0xE0) lo = 0xA0;  // overlong below U+0800
    if (lead == 0xED) hi = 0x9F;  // surrogates U+D800..U+DFFF
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    length = 4;
    if (lead == 0xF0) lo = 0x90;  // overlong below U+10000
    if (lead == 0xF4) hi = 0x8F;  // above U+10FFFF
  } else {
    return 0;  // continuation byte, overlong 0xC0/0xC1 or 0xF5..0xFF
  }
  if (byte(1) < lo || byte(1) > hi) return 0;
  for (std::size_t i = 2; i < length; ++i) {
    if (byte(i) < 0x80 || byte(i) > 0xBF) return 0;
  }
  return length;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult parse() {
    JsonParseResult result;
    skip_ws();
    if (!parse_value(result.value, &result.error)) return result;
    skip_ws();
    if (pos_ != text_.size()) {
      result.error = "trailing characters after JSON document";
      return result;
    }
    result.ok = true;
    return result;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool fail(std::string* error, const std::string& message) {
    char where[32];
    std::snprintf(where, sizeof(where), " at offset %zu", pos_);
    *error = message + where;
    return false;
  }

  bool parse_value(JsonValue& out, std::string* error) {
    if (++depth_ > kMaxDepth) return fail(error, "nesting too deep");
    const bool ok = parse_value_inner(out, error);
    --depth_;
    return ok;
  }

  bool parse_value_inner(JsonValue& out, std::string* error) {
    if (pos_ >= text_.size()) return fail(error, "unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, error);
      case '[':
        return parse_array(out, error);
      case '"': {
        std::string s;
        if (!parse_string(s, error)) return false;
        out = JsonValue::of(std::move(s));
        return true;
      }
      case 't':
        return parse_literal("true", JsonValue::of(true), out, error);
      case 'f':
        return parse_literal("false", JsonValue::of(false), out, error);
      case 'n':
        return parse_literal("null", JsonValue::null(), out, error);
      default:
        return parse_number(out, error);
    }
  }

  bool parse_literal(std::string_view word, JsonValue value, JsonValue& out,
                     std::string* error) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail(error, "invalid literal");
    }
    pos_ += word.size();
    out = std::move(value);
    return true;
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  /// Skip a run of decimal digits; returns how many there were.
  std::size_t skip_digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - from;
  }

  /// RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool parse_number(JsonValue& out, std::string* error) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;  // a leading zero stands alone: "01" ends after the "0"
    } else if (skip_digits() == 0) {
      pos_ = start;
      return fail(error, "invalid value");
    }
    if (at('.')) {
      ++pos_;
      if (skip_digits() == 0) return fail(error, "digit expected after '.'");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (skip_digits() == 0) return fail(error, "digit expected in exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      pos_ = start;
      return fail(error, "number out of range");
    }
    out = JsonValue::of(value);
    return true;
  }

  /// Four hex digits at `from` as a code unit; false when any is missing.
  bool read_hex4(std::size_t from, unsigned* code) const {
    if (from + 4 > text_.size()) return false;
    *code = 0;
    for (std::size_t i = from; i < from + 4; ++i) {
      const char h = text_[i];
      *code <<= 4;
      if (h >= '0' && h <= '9') {
        *code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  }

  /// Decode the `\uXXXX` escape at pos_ (a surrogate pair takes two) and
  /// append its code point as UTF-8; pos_ ends past the last hex digit.
  bool parse_unicode_escape(std::string& out, std::string* error) {
    unsigned code = 0;
    if (!read_hex4(pos_ + 2, &code)) return fail(error, "invalid \\u escape");
    pos_ += 6;
    if (code >= 0xDC00 && code <= 0xDFFF) {
      return fail(error, "unpaired low surrogate");
    }
    if (code >= 0xD800 && code <= 0xDBFF) {
      unsigned low = 0;
      if (text_.substr(pos_, 2) != "\\u" || !read_hex4(pos_ + 2, &low) ||
          low < 0xDC00 || low > 0xDFFF) {
        return fail(error, "unpaired high surrogate");
      }
      pos_ += 6;
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return true;
  }

  bool parse_string(std::string& out, std::string* error) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail(error, "unescaped control character in string");
      }
      if (static_cast<unsigned char>(c) >= 0x80) {
        const std::size_t length = utf8_sequence_length(text_, pos_);
        if (length == 0) return fail(error, "invalid UTF-8 in string");
        out.append(text_.substr(pos_, length));
        pos_ += length;
        continue;
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) break;
      switch (text_[pos_ + 1]) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u':
          if (!parse_unicode_escape(out, error)) return false;
          continue;  // pos_ is already past the escape
        default:
          return fail(error, "invalid escape");
      }
      pos_ += 2;
    }
    return fail(error, "unterminated string");
  }

  bool parse_array(JsonValue& out, std::string* error) {
    out = JsonValue::array();
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      skip_ws();
      if (!parse_value(item, error)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out, std::string* error) {
    out = JsonValue::object();
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail(error, "expected object key");
      }
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail(error, "expected ':'");
      }
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, error)) return false;
      out.set(key, std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue& JsonValue::set(std::string_view key, JsonValue value) {
  type_ = Type::kObject;
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return existing;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
  return members_.back().second;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr && member->is_number() ? member->number_ : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr && member->is_string() ? member->string_
                                                  : std::string(fallback);
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr && member->is_bool() ? member->bool_ : fallback;
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void JsonValue::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      append_json_number(out, number_);
      break;
    case Type::kString:
      append_json_string(out, string_);
      break;
    case Type::kArray:
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        items_[i].dump_to(out);
      }
      out += ']';
      break;
    case Type::kObject:
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        append_json_string(out, members_[i].first);
        out += ':';
        members_[i].second.dump_to(out);
      }
      out += '}';
      break;
  }
}

JsonParseResult parse_json(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace edacloud::util
