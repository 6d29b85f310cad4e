#include "util/flags.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace edacloud::util {

namespace {

constexpr double kIntMin = std::numeric_limits<int>::min();
constexpr double kIntMax = std::numeric_limits<int>::max();

/// An integer range with an open-ended side stops at the int limits, so
/// every accepted value fits the int most flags are read into.
FlagRange effective_range(const Flag& flag) {
  FlagRange range = flag.range;
  if (flag.kind != FlagKind::kInt) return range;
  if (range.lo == -kNoBound) range.lo = kIntMin;
  if (range.hi == kNoBound) range.hi = kIntMax;
  return range;
}

bool valid(const Flag& flag, const std::string& text) {
  if (flag.kind == FlagKind::kWord) {
    return std::find(flag.words.begin(), flag.words.end(), text) !=
           flag.words.end();
  }
  if (flag.kind != FlagKind::kInt && flag.kind != FlagKind::kReal) {
    return true;
  }
  double value = 0.0;
  long long integer = 0;
  if (flag.kind == FlagKind::kInt) {
    if (!parse_number(text, integer)) return false;
    value = static_cast<double>(integer);
  } else if (!parse_number(text, value)) {
    return false;
  }
  const FlagRange r = effective_range(flag);
  return (r.lo_open ? value > r.lo : value >= r.lo) &&
         (r.hi_open ? value < r.hi : value <= r.hi);
}

/// What a flag accepts, e.g. "an integer >= 1" or "a number in [0, 1)".
std::string describe(const Flag& flag) {
  if (flag.kind == FlagKind::kWord) return join(flag.words, " | ");
  if (flag.kind != FlagKind::kInt && flag.kind != FlagKind::kReal) {
    return "a value";
  }
  const FlagRange r = effective_range(flag);
  const auto number = [](double value) {
    std::ostringstream out;
    out << value;
    return out.str();
  };
  const std::string what =
      flag.kind == FlagKind::kInt ? "an integer" : "a number";
  if (r.hi >= kIntMax) {
    if (r.lo <= kIntMin) return what;
    return what + (r.lo_open ? " > " : " >= ") + number(r.lo);
  }
  return what + " in " + (r.lo_open ? "(" : "[") + number(r.lo) + ", " +
         number(r.hi) + (r.hi_open ? ")" : "]");
}

std::string label(const Flag& flag) {
  if (flag.kind == FlagKind::kWord) {
    return flag.name + " " + join(flag.words, "|");
  }
  return flag.metavar.empty() ? flag.name : flag.name + " " + flag.metavar;
}

}  // namespace

const std::string* Args::find(std::string_view flag) const {
  const auto declared = [&](const Flag& entry) { return entry.name == flag; };
  if (std::none_of(command_->flags.begin(), command_->flags.end(), declared)) {
    throw std::logic_error(command_->name + " reads undeclared flag " +
                           std::string(flag));
  }
  const auto it = values_.find(flag);
  return it == values_.end() ? nullptr : &it->second;
}

std::string parse_args(const Command& command,
                       const std::vector<std::string>& tokens, Args& args) {
  args.command_ = &command;
  const std::string& cmd = command.name;
  const auto bad_value = [&](const Flag& flag, const std::string& value) {
    return cmd + " " + flag.name + " wants " + describe(flag) + ", got '" +
           value + "'";
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      args.positionals.push_back(token);
      continue;
    }
    const auto flag = std::find_if(
        command.flags.begin(), command.flags.end(),
        [&](const Flag& declared) { return declared.name == token; });
    if (flag == command.flags.end()) {
      return "unknown flag '" + token + "' for '" + cmd + "'";
    }
    if (args.values_.count(token) != 0) {
      return cmd + " " + token + " wants to be given once";
    }
    if (flag->kind == FlagKind::kSwitch) {
      args.values_[token] = "";
      continue;
    }
    if (i + 1 >= tokens.size() || tokens[i + 1].rfind("--", 0) == 0) {
      return cmd + " " + token + " wants a value";
    }
    const std::string& value = tokens[++i];
    if (!valid(*flag, value)) return bad_value(*flag, value);
    args.values_[token] = value;
  }

  const std::size_t given = args.positionals.size();
  const std::size_t wanted = command.positionals.size();
  if (given > wanted ||
      (given < wanted && !(command.positionals_optional && given == 0))) {
    std::vector<std::string> names;
    for (const Flag& flag : command.positionals) names.push_back(flag.name);
    std::string message = cmd + " wants " +
                          (names.empty() ? "no positional arguments"
                                         : join(names, " "));
    if (given > wanted) {
      message += ", got an extra '" + args.positionals[wanted] + "'";
    }
    return message;
  }
  for (std::size_t i = 0; i < given; ++i) {
    if (!valid(command.positionals[i], args.positionals[i])) {
      return bad_value(command.positionals[i], args.positionals[i]);
    }
  }
  return "";
}

std::string synopsis(const std::string& program, const Command& command) {
  std::vector<std::string> words;
  for (const Flag& flag : command.positionals) words.push_back(flag.name);
  // Appends, not "[" + text + "]": GCC 12 misreports that as -Wrestrict.
  const auto optional = [](const std::string& text) {
    std::string out = "[";
    out += text;
    out += ']';
    return out;
  };
  if (command.positionals_optional && !words.empty()) {
    words = {optional(join(words, " "))};
  }
  for (const Flag& flag : command.flags) words.push_back(optional(label(flag)));
  std::string line = "  " + program + " " + command.name;
  std::string out;
  const std::string indent(line.size(), ' ');
  for (const std::string& word : words) {
    if (line.size() + 1 + word.size() > 78) {
      out += line + "\n";
      line = indent;
    }
    line += " " + word;
  }
  return out + line + "\n";
}

std::string help_text(const std::string& program, const Command& command) {
  // Labels wider than this put their help on the next line.
  constexpr std::size_t kMaxLabel = 28;
  std::vector<const Flag*> entries;
  for (const Flag& flag : command.positionals) entries.push_back(&flag);
  for (const Flag& flag : command.flags) entries.push_back(&flag);
  std::size_t width = 0;
  for (const Flag* flag : entries) {
    width = std::max(width, std::min(label(*flag).size(), kMaxLabel));
  }
  std::string out =
      "usage:\n" + synopsis(program, command) + command.summary + "\n\n";
  for (const Flag* flag : entries) {
    std::string help = flag->help;
    if (flag->kind == FlagKind::kInt || flag->kind == FlagKind::kReal) {
      help += "; " + describe(*flag);
    }
    const std::string name = label(*flag);
    out += "  " + name;
    out += name.size() > width ? "\n  " + std::string(width, ' ')
                               : std::string(width - name.size(), ' ');
    out += "  " + help + "\n";
  }
  return out;
}

}  // namespace edacloud::util
