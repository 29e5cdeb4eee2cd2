#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace charlie::util {
namespace {

Cli make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()), args.data());
}

TEST(Cli, FlagsAndDefaults) {
  Cli cli = make_cli({"--quick"});
  EXPECT_TRUE(cli.has_flag("--quick"));
  EXPECT_FALSE(cli.has_flag("--quick"));  // consumed
  EXPECT_EQ(cli.get_int("--reps", 5), 5);
  cli.finish();
}

TEST(Cli, SeparateValueForm) {
  Cli cli = make_cli({"--reps", "20"});
  EXPECT_EQ(cli.get_int("--reps", 5), 20);
  cli.finish();
}

TEST(Cli, EqualsValueForm) {
  Cli cli = make_cli({"--sigma=2.5", "--name=foo"});
  EXPECT_DOUBLE_EQ(cli.get_double("--sigma", 0.0), 2.5);
  EXPECT_EQ(cli.get_string("--name", ""), "foo");
  cli.finish();
}

TEST(Cli, MissingValueThrows) {
  Cli cli = make_cli({"--reps"});
  EXPECT_THROW(cli.get_int("--reps", 5), ConfigError);
}

TEST(Cli, InvalidNumberThrows) {
  Cli cli = make_cli({"--reps", "abc"});
  EXPECT_THROW(cli.get_int("--reps", 5), ConfigError);
  Cli cli2 = make_cli({"--sigma", "xyz"});
  EXPECT_THROW(cli2.get_double("--sigma", 0.0), ConfigError);
}

TEST(Cli, TrailingGarbageAfterNumberRejected) {
  // std::stoi/stod would silently parse the "5"/"1.5" prefix; the strict
  // parser treats a typo'd value as an error.
  Cli cli = make_cli({"--reps", "5x"});
  EXPECT_THROW(cli.get_int("--reps", 1), ConfigError);
  Cli cli2 = make_cli({"--sigma", "1.5ps"});
  EXPECT_THROW(cli2.get_double("--sigma", 0.0), ConfigError);
  Cli cli3 = make_cli({"--reps", "1.5"});
  EXPECT_THROW(cli3.get_int("--reps", 1), ConfigError);
  Cli cli4 = make_cli({"--reps", "99999999999999999999"});
  EXPECT_THROW(cli4.get_int("--reps", 1), ConfigError);
}

TEST(Cli, CountValuesAndFallbacks) {
  Cli cli = make_cli({"--paths", "7", "--runs=1", "--corners", "0"});
  EXPECT_EQ(cli.get_count("--paths", 5), 7u);
  EXPECT_EQ(cli.get_count("--runs", 4, 1), 1u);
  EXPECT_EQ(cli.get_count("--corners", 3), 0u);
  EXPECT_EQ(cli.get_count("--shards", 2), 2u);  // absent
  cli.finish();
}

// A negative count must not wrap into a huge size_t, and a count below its
// floor must fail before it reaches the code that relies on the floor; both
// errors name the flag.
TEST(Cli, CountRejectsNegativeAndBelowFloorNamingTheFlag) {
  auto error = [](const char* flag, const char* value, std::size_t min) {
    Cli cli = make_cli({flag, value});
    try {
      cli.get_count(flag, 4, min);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(error("--gates", "-1", 0).find("--gates"), std::string::npos);
  EXPECT_NE(error("--paths", "-1", 0).find("--paths"), std::string::npos);
  EXPECT_NE(error("--runs", "0", 1).find("--runs"), std::string::npos);
  EXPECT_EQ(error("--runs", "1", 1), "");
  EXPECT_NE(error("--shards", "abc", 0).find("--shards"), std::string::npos);
}

TEST(Cli, UnknownArgumentRejectedByFinish) {
  Cli cli = make_cli({"--tpyo"});
  EXPECT_THROW(cli.finish(), ConfigError);
}

TEST(Cli, ProgramName) {
  Cli cli = make_cli({});
  EXPECT_EQ(cli.program(), "prog");
  cli.finish();
}

}  // namespace
}  // namespace charlie::util
