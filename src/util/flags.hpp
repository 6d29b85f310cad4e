#pragma once
// Declarative command-line flags. A command declares each positional and
// flag once, as one table entry (name, metavar, help, kind, range); one
// parser checks a command line against the table, and the synopsis and
// --help text print from the same table. The parser is strict: unknown
// flags, missing values, repeated flags, numbers that do not parse in full
// and values outside the declared range are all errors.

#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace edacloud::util {

enum class FlagKind { kSwitch, kString, kInt, kReal, kWord };

inline constexpr double kNoBound = std::numeric_limits<double>::infinity();
inline constexpr double kInt64Max =
    static_cast<double>(std::numeric_limits<long long>::max());

/// A number's valid range; an open end excludes the bound itself. An
/// integer range with no bound on a side stops at the int limit there.
struct FlagRange {
  double lo = -kNoBound, hi = kNoBound;
  bool lo_open = false, hi_open = false;
};
constexpr FlagRange at_least(double lo) { return {lo, kNoBound}; }
constexpr FlagRange above(double lo) { return {lo, kNoBound, true}; }
constexpr FlagRange within(double lo, double hi) { return {lo, hi}; }

/// One positional or flag, declared once.
struct Flag {
  std::string name;     // "--seed", or "<size>" for a positional
  std::string metavar;  // "N"; empty for switches, positionals and words
  std::string help;
  FlagKind kind = FlagKind::kString;
  FlagRange range = {};
  std::vector<std::string> words = {};  // kWord: the accepted values
};

class Args;

/// A subcommand: its table and the function that runs it.
struct Command {
  std::string name;
  std::string summary;
  int (*run)(const Args&);
  std::vector<Flag> positionals;
  std::vector<Flag> flags;
  bool positionals_optional = false;  // all of them or none
};

/// Whole tokens only: "4x", "1e", " 4", "inf" and "" do not parse.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end &&
         std::isfinite(static_cast<double>(out));
}

/// One checked command line: positionals plus the text of every flag
/// given. Reading a flag the command does not declare throws.
class Args {
 public:
  std::vector<std::string> positionals;

  [[nodiscard]] bool has(std::string_view flag) const {
    return find(flag) != nullptr;
  }

  /// A flag's value, or "" when it was not given.
  [[nodiscard]] std::string text(std::string_view flag) const {
    const std::string* value = find(flag);
    return value == nullptr ? std::string() : *value;
  }

  /// Store the flag's value in `slot` when given (an empty string counts
  /// as not given, as for text()); returns whether it was.
  template <typename T>
  bool read(std::string_view flag, T& slot) const {
    const std::string value = text(flag);
    if (value.empty()) return false;
    if constexpr (std::is_same_v<T, std::string>) {
      slot = value;
    } else if constexpr (std::is_floating_point_v<T>) {
      parse_number(value, slot);
    } else {
      long long integer = 0;
      parse_number(value, integer);
      slot = static_cast<T>(integer);
    }
    return true;
  }

  /// A numeric positional, already checked against its declaration.
  template <typename T>
  [[nodiscard]] T number(std::size_t index) const {
    T value = 0;
    parse_number(positionals.at(index), value);
    return value;
  }

 private:
  friend std::string parse_args(const Command&,
                                const std::vector<std::string>&, Args&);
  [[nodiscard]] const std::string* find(std::string_view flag) const;

  const Command* command_ = nullptr;
  std::map<std::string, std::string, std::less<>> values_;
};

/// Check `tokens` against the command's table into `args`. A token that
/// starts with "--" is a flag, and a value flag takes the next token;
/// every other token is a positional, in any order relative to the flags.
/// Returns "" when the line is valid, else what is wrong, e.g.
/// "fleet-sim --seed wants an integer >= 0, got 'abc'".
std::string parse_args(const Command& command,
                       const std::vector<std::string>& tokens, Args& args);

/// "  <program> gen <family> <size> [--aag F] [--dot F]", wrapped at 78
/// columns.
std::string synopsis(const std::string& program, const Command& command);

/// The synopsis, the summary, then one line per positional and flag.
std::string help_text(const std::string& program, const Command& command);

}  // namespace edacloud::util
