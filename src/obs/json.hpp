#pragma once
// The JSON text helpers every obs exporter writes through (the tracer's
// Chrome trace and the registry's JSON/CSV), so both escape and format
// alike.

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace edacloud::obs {

/// Append `text` as the body of a JSON string: quotes, backslashes and
/// control characters escaped.
inline void append_escaped(std::string& out, std::string_view text) {
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
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Deterministic number formatting: integers print without a fraction,
/// everything else as %.9g, non-finite values as 0. No locale dependence,
/// so same-value records always serialize to the same bytes.
inline void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "0";
    return;
  }
  char buf[40];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", value);
  }
  out += buf;
}

}  // namespace edacloud::obs
