#include "common/args.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/config.hpp"

namespace irmc {
namespace {

Args ParseVec(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args::Parse(static_cast<int>(v.size()), v.data());
}

TEST(Args, CommandAndKeyValues) {
  const Args args = ParseVec({"single", "--size", "15", "--scheme",
                              "tree-worm"});
  EXPECT_EQ(args.command(), "single");
  EXPECT_EQ(args.GetInt("size", 0), 15);
  EXPECT_EQ(args.GetString("scheme", ""), "tree-worm");
}

TEST(Args, DefaultsWhenMissing) {
  const Args args = ParseVec({"load"});
  EXPECT_EQ(args.GetInt("degree", 8), 8);
  EXPECT_DOUBLE_EQ(args.GetDouble("load", 0.25), 0.25);
  EXPECT_EQ(args.GetString("scheme", "fallback"), "fallback");
  EXPECT_FALSE(args.GetFlag("dot"));
}

TEST(Args, FlagsHaveNoValue) {
  const Args args = ParseVec({"topology", "--dot", "--seed", "9"});
  EXPECT_TRUE(args.GetFlag("dot"));
  EXPECT_EQ(args.GetInt("seed", 0), 9);
}

TEST(Args, FlagBeforeAnotherOption) {
  const Args args = ParseVec({"topology", "--dot", "--save", "out.txt"});
  EXPECT_TRUE(args.GetFlag("dot"));
  EXPECT_EQ(args.GetString("save", ""), "out.txt");
}

TEST(Args, NoCommandIsEmpty) {
  const Args args = ParseVec({"--size", "3"});
  EXPECT_TRUE(args.command().empty());
  EXPECT_EQ(args.GetInt("size", 0), 3);
}

// A value that is present but does not parse must not silently run the
// default (`irmc_verify --trials 2x` would verify 20 topologies).
TEST(ArgsDeathTest, MalformedIntegerExitsNamingTheFlag) {
  for (const char* bad : {"2x", "abc", "x.y"}) {
    const Args args = ParseVec({"single", "--size", bad});
    EXPECT_EXIT(args.GetInt("size", 7), ::testing::ExitedWithCode(2),
                std::string("invalid value for --size: '") + bad +
                    "' \\(accepted: integer\\)");
  }
}

TEST(ArgsDeathTest, MalformedDoubleExitsNamingTheFlag) {
  for (const char* bad : {"2x", "abc", "x.y"}) {
    const Args args = ParseVec({"load", "--load", bad});
    EXPECT_EXIT(args.GetDouble("load", 0.5), ::testing::ExitedWithCode(2),
                std::string("invalid value for --load: '") + bad +
                    "' \\(accepted: finite number\\)");
  }
}

TEST(ArgsDeathTest, NumberWithoutValueOrOutOfRangeExits) {
  const Args flag = ParseVec({"single", "--size", "--seed", "3"});
  EXPECT_EXIT(flag.GetInt("size", 7), ::testing::ExitedWithCode(2),
              "invalid value for --size: ''");
  const Args huge = ParseVec({"single", "--seed", "99999999999999999999"});
  EXPECT_EXIT(huge.GetInt("seed", 1), ::testing::ExitedWithCode(2),
              "invalid value for --seed");
  const Args inf = ParseVec({"load", "--load", "inf"});
  EXPECT_EXIT(inf.GetDouble("load", 0.5), ::testing::ExitedWithCode(2),
              "invalid value for --load: 'inf'");
}

TEST(Args, GetIntAtLeastAcceptsInRangeAndFallsBackWhenAbsent) {
  const Args args = ParseVec({"single", "--packets", "3"});
  EXPECT_EQ(args.GetIntAtLeast("packets", 1, 1), 3);
  EXPECT_EQ(args.GetIntAtLeast("switches", 8, 1), 8);
}

TEST(ArgsDeathTest, GetIntAtLeastRejectsBelowMinimumAndBeyondInt) {
  const Args zero = ParseVec({"single", "--packets", "0"});
  EXPECT_EXIT(zero.GetIntAtLeast("packets", 1, 1),
              ::testing::ExitedWithCode(2),
              "invalid value for --packets: '0' \\(accepted: integer >= 1\\)");
  const Args wide = ParseVec({"single", "--packets", "4294967297"});
  EXPECT_EXIT(wide.GetIntAtLeast("packets", 1, 1),
              ::testing::ExitedWithCode(2),
              "invalid value for --packets: '4294967297'");
}

TEST(Args, NegativeAndFloatValues) {
  const Args args = ParseVec({"x", "--delta", "-3", "--ratio", "0.5"});
  EXPECT_EQ(args.GetInt("delta", 0), -3);
  EXPECT_DOUBLE_EQ(args.GetDouble("ratio", 0.0), 0.5);
}

TEST(Args, UnconsumedKeysDetected) {
  const Args args = ParseVec({"single", "--size", "3", "--typo", "1"});
  (void)args.GetInt("size", 0);
  const auto leftover = args.UnconsumedKeys();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(Args, StrayPositionalFlagged) {
  const Args args = ParseVec({"single", "oops"});
  EXPECT_FALSE(args.UnconsumedKeys().empty());
}

TEST(Args, GetChoiceAcceptsListedValueAndFallsBackWhenAbsent) {
  const Args args = ParseVec({"single", "--engine", "flit"});
  EXPECT_EQ(args.GetChoice("engine", "vct", {"vct", "flit"}), "flit");
  EXPECT_EQ(args.GetChoice("pattern", "uniform", {"uniform", "hotspot"}),
            "uniform");
}

TEST(ArgsDeathTest, GetChoiceRejectsTypoListingAcceptedValues) {
  const Args args = ParseVec({"single", "--engine", "filt"});
  EXPECT_EXIT(args.GetChoice("engine", "vct", {"vct", "flit"}),
              ::testing::ExitedWithCode(2),
              "invalid value for --engine: 'filt' \\(accepted: vct, flit\\)");
}

TEST(Args, HasChecksPresence) {
  const Args args = ParseVec({"x", "--a", "1"});
  EXPECT_TRUE(args.Has("a"));
  EXPECT_FALSE(args.Has("b"));
}

// --- IRMC_* environment knobs (EnvInt) ---

constexpr const char* kKnob = "IRMC_TEST_ENV_INT_KNOB";

/// Sets (or with nullptr unsets) the test knob; unsets it on scope exit.
struct KnobGuard {
  explicit KnobGuard(const char* value) {
    if (value != nullptr)
      setenv(kKnob, value, 1);
    else
      unsetenv(kKnob);
  }
  ~KnobGuard() { unsetenv(kKnob); }
};

TEST(EnvInt, UnsetFallsBack) {
  const KnobGuard guard(nullptr);
  EXPECT_EQ(EnvInt(kKnob, 7), 7);
}

TEST(EnvInt, ReadsPositiveIntegers) {
  {
    const KnobGuard guard("4");
    EXPECT_EQ(EnvInt(kKnob, 7), 4);
  }
  {
    const KnobGuard guard("2147483647");
    EXPECT_EQ(EnvInt(kKnob, 7), 2147483647);
  }
}

TEST(EnvIntDeathTest, RejectsMalformedNonPositiveAndOutOfRange) {
  for (const std::string bad :
       {"abc", "4x", "0", "-2", "", "2147483648", "4294967297",
        "99999999999999999999999"}) {
    EXPECT_EXIT(
        {
          setenv(kKnob, bad.c_str(), 1);
          EnvInt(kKnob, 7);
        },
        ::testing::ExitedWithCode(2),
        "invalid value for IRMC_TEST_ENV_INT_KNOB: '" + bad +
            "' \\(accepted: positive integer\\)")
        << "value '" << bad << "'";
  }
}

}  // namespace
}  // namespace irmc
