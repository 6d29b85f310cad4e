// Tests for the declarative flag tables (util/flags.hpp): strict parsing,
// declared ranges, positionals in any order, and the generated usage text.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace edacloud::util {
namespace {

int run_nothing(const Args&) { return 0; }

const Command kDemo = {
    "demo",
    "A command for tests.",
    run_nothing,
    {{"<family>", "", "design family"},
     {"<size>", "", "design size", FlagKind::kInt, at_least(1)}},
    {{"--out", "F", "output file"},
     {"--fast", "", "go fast", FlagKind::kSwitch},
     {"--seed", "N", "seed", FlagKind::kInt, within(0, kInt64Max)},
     {"--threads", "N", "worker threads", FlagKind::kInt, at_least(1)},
     {"--offset", "N", "offset", FlagKind::kInt},
     {"--spot", "FRACTION", "spot share", FlagKind::kReal, within(0, 1)},
     {"--fail", "P", "failure chance", FlagKind::kReal, {0, 1, false, true}},
     {"--rate", "R", "arrival rate", FlagKind::kReal, above(0)},
     {"--mode", "", "mode", FlagKind::kWord, {}, {"closed", "open"}}}};

std::string parse(const std::vector<std::string>& tokens, Args* out = nullptr,
                  const Command& command = kDemo) {
  Args args;
  const std::string error = parse_args(command, tokens, args);
  if (out != nullptr) *out = args;
  return error;
}

TEST(FlagsTest, ReadsEveryKindWithPositionalsInAnyOrder) {
  Args args;
  ASSERT_EQ(parse({"--out", "x.v", "adder", "--fast", "--seed",
                   "18446744073", "8", "--spot", "0.25", "--mode", "open"},
                  &args),
            "");
  ASSERT_EQ(args.positionals, (std::vector<std::string>{"adder", "8"}));
  EXPECT_EQ(args.number<int>(1), 8);
  EXPECT_EQ(args.text("--out"), "x.v");
  EXPECT_TRUE(args.has("--fast"));
  std::uint64_t seed = 1;
  EXPECT_TRUE(args.read("--seed", seed));
  EXPECT_EQ(seed, 18446744073ULL);
  double spot = 0.0;
  EXPECT_TRUE(args.read("--spot", spot));
  EXPECT_EQ(spot, 0.25);
  EXPECT_EQ(args.text("--mode"), "open");

  // Flags not given leave their slots alone.
  int threads = 3;
  EXPECT_FALSE(args.read("--threads", threads));
  EXPECT_EQ(threads, 3);
  EXPECT_FALSE(args.has("--rate"));
  EXPECT_EQ(args.text("--rate"), "");
}

TEST(FlagsTest, ReadingAnUndeclaredFlagThrows) {
  Args args;
  ASSERT_EQ(parse({"adder", "8"}, &args), "");
  EXPECT_THROW((void)args.has("--no-such-flag"), std::logic_error);
}

TEST(FlagsTest, RejectsUnknownMissingAndRepeatedFlags) {
  EXPECT_EQ(parse({"adder", "8", "--bogus", "1"}),
            "unknown flag '--bogus' for 'demo'");
  EXPECT_EQ(parse({"adder", "8", "--seed"}), "demo --seed wants a value");
  EXPECT_EQ(parse({"adder", "8", "--seed", "--fast"}),
            "demo --seed wants a value");
  EXPECT_EQ(parse({"adder", "8", "--seed", "5", "--seed", "6"}),
            "demo --seed wants to be given once");
  EXPECT_EQ(parse({"adder", "8", "--fast", "--fast"}),
            "demo --fast wants to be given once");
}

TEST(FlagsTest, NumbersMustParseInFull) {
  for (const char* bad : {"4x", "x4", "", " 4", "4 ", "1e", "0x10", "+4"}) {
    EXPECT_NE(parse({"adder", "8", "--threads", bad}), "") << bad;
  }
  for (const char* bad : {"abc", "1.5x", "inf", "nan", "1e999", ""}) {
    EXPECT_NE(parse({"adder", "8", "--rate", bad}), "") << bad;
  }
  EXPECT_EQ(parse({"adder", "8", "--threads", "4"}), "");
  EXPECT_EQ(parse({"adder", "8", "--rate", "1e3"}), "");
  EXPECT_EQ(parse({"adder", "8", "--rate", ".5"}), "");
  EXPECT_EQ(parse({"adder", "8", "--seed", "abc"}),
            "demo --seed wants an integer >= 0, got 'abc'");
}

TEST(FlagsTest, ValuesMustLieInTheDeclaredRange) {
  EXPECT_EQ(parse({"adder", "8", "--spot", "1.7"}),
            "demo --spot wants a number in [0, 1], got '1.7'");
  EXPECT_EQ(parse({"adder", "8", "--spot", "1"}), "");
  EXPECT_EQ(parse({"adder", "8", "--spot", "0"}), "");
  EXPECT_EQ(parse({"adder", "8", "--fail", "1"}),
            "demo --fail wants a number in [0, 1), got '1'");
  EXPECT_EQ(parse({"adder", "8", "--fail", "0.99"}), "");
  EXPECT_EQ(parse({"adder", "8", "--rate", "0"}),
            "demo --rate wants a number > 0, got '0'");
  EXPECT_EQ(parse({"adder", "8", "--threads", "0"}),
            "demo --threads wants an integer >= 1, got '0'");
  EXPECT_EQ(parse({"adder", "8", "--seed", "-1"}),
            "demo --seed wants an integer >= 0, got '-1'");
  EXPECT_EQ(parse({"adder", "8", "--mode", "half"}),
            "demo --mode wants closed | open, got 'half'");
}

TEST(FlagsTest, IntegersWithoutABoundStopAtTheIntLimits) {
  EXPECT_EQ(parse({"adder", "8", "--threads", "2147483647"}), "");
  EXPECT_NE(parse({"adder", "8", "--threads", "2147483648"}), "");
  EXPECT_EQ(parse({"adder", "8", "--offset", "-2147483648"}), "");
  EXPECT_EQ(parse({"adder", "8", "--offset", "-2147483649"}),
            "demo --offset wants an integer, got '-2147483649'");
  // A range declared wider than int is kept.
  EXPECT_EQ(parse({"adder", "8", "--seed", "9223372036854775807"}), "");
  EXPECT_NE(parse({"adder", "8", "--seed", "9223372036854775808"}), "");
}

TEST(FlagsTest, PositionalsAreCountedAndChecked) {
  EXPECT_EQ(parse({"adder"}), "demo wants <family> <size>");
  EXPECT_EQ(parse({"adder", "8", "extra"}),
            "demo wants <family> <size>, got an extra 'extra'");
  EXPECT_EQ(parse({"adder", "0"}),
            "demo <size> wants an integer >= 1, got '0'");
  // A value that starts with "-" but not "--" is a value, not a flag.
  EXPECT_EQ(parse({"adder", "-3"}),
            "demo <size> wants an integer >= 1, got '-3'");

  Command optional = kDemo;
  optional.positionals_optional = true;
  EXPECT_EQ(parse({}, nullptr, optional), "");
  EXPECT_EQ(parse({"adder"}, nullptr, optional),
            "demo wants <family> <size>");
  EXPECT_EQ(parse({"adder", "8"}, nullptr, optional), "");

  Command none = kDemo;
  none.positionals.clear();
  EXPECT_EQ(parse({"x"}, nullptr, none),
            "demo wants no positional arguments, got an extra 'x'");
}

TEST(FlagsTest, SynopsisAndHelpComeFromTheTable) {
  const std::string line = synopsis("tool", kDemo);
  EXPECT_EQ(line.rfind("  tool demo <family> <size> [--out F] [--fast]", 0),
            0u);
  EXPECT_NE(line.find("[--mode closed|open]"), std::string::npos);
  std::size_t start = 0;
  for (std::size_t end = line.find('\n'); end != std::string::npos;
       start = end + 1, end = line.find('\n', start)) {
    EXPECT_LE(end - start, 78u);
  }

  const std::string help = help_text("tool", kDemo);
  EXPECT_NE(help.find("A command for tests."), std::string::npos);
  for (const Flag& flag : kDemo.flags) {
    EXPECT_NE(help.find("  " + flag.name), std::string::npos) << flag.name;
  }
  EXPECT_NE(help.find("spot share; a number in [0, 1]"), std::string::npos);
  EXPECT_NE(help.find("design size; an integer >= 1"), std::string::npos);

  Command optional = kDemo;
  optional.positionals_optional = true;
  EXPECT_NE(synopsis("tool", optional).find("demo [<family> <size>]"),
            std::string::npos);
}

}  // namespace
}  // namespace edacloud::util
