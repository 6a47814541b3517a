#include "common/flags.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace cwc {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const Flags flags = parse({"--port=7000", "--host=10.0.0.1"});
  EXPECT_EQ(flags.get_int("port", 0), 7000);
  EXPECT_EQ(flags.get("host"), "10.0.0.1");
}

TEST(Flags, SpaceSyntax) {
  const Flags flags = parse({"--port", "8080", "--name", "phone-a"});
  EXPECT_EQ(flags.get_int("port", 0), 8080);
  EXPECT_EQ(flags.get("name"), "phone-a");
}

TEST(Flags, BareBooleanFlag) {
  const Flags flags = parse({"--verbose", "--offline"});
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_TRUE(flags.get_bool("offline"));
  EXPECT_FALSE(flags.get_bool("absent"));
  EXPECT_TRUE(flags.get_bool("absent", true));
}

TEST(Flags, ExplicitBooleanValues) {
  const Flags flags = parse({"--a=true", "--b=false", "--c=1", "--d=no"});
  EXPECT_TRUE(flags.get_bool("a"));
  EXPECT_FALSE(flags.get_bool("b"));
  EXPECT_TRUE(flags.get_bool("c"));
  EXPECT_FALSE(flags.get_bool("d"));
}

TEST(Flags, BareFlagFollowedByFlag) {
  const Flags flags = parse({"--verbose", "--port=1"});
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_int("port", 0), 1);
}

TEST(Flags, PositionalArguments) {
  const Flags flags = parse({"run", "--port=1", "file.txt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "file.txt");
}

TEST(Flags, Doubles) {
  const Flags flags = parse({"--rate=2.5"});
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 1.5), 1.5);
}

TEST(Flags, MalformedNumbersThrow) {
  const Flags flags = parse({"--port=80a", "--rate=x", "--flag=maybe"});
  EXPECT_THROW(flags.get_int("port", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.get_bool("flag"), std::invalid_argument);
}

TEST(Flags, NonNumericAndOutOfRangeValuesThrowNamingTheFlag) {
  const Flags flags =
      parse({"--seed=abc", "--keepalive-ms=fast", "--big=99999999999999999999", "--empty=",
             "--huge=1e999", "--nan=nan", "--inf=-inf"});
  for (const char* name : {"seed", "keepalive-ms", "big", "empty"}) {
    try {
      (void)flags.get_int(name, 0);
      ADD_FAILURE() << name << " parsed as an integer";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name), std::string::npos);
    }
  }
  for (const char* name : {"keepalive-ms", "huge", "nan", "inf", "empty"}) {
    try {
      (void)flags.get_double(name, 0.0);
      ADD_FAILURE() << name << " parsed as a number";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name), std::string::npos);
    }
  }
}

TEST(Flags, UnknownDetection) {
  const Flags flags = parse({"--port=1", "--tpyo=2"});
  const auto unknown = flags.unknown({"port"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "tpyo");
}

TEST(Flags, EmptyValueViaEquals) {
  const Flags flags = parse({"--input="});
  EXPECT_TRUE(flags.has("input"));
  EXPECT_EQ(flags.get("input", "fallback"), "");
}

}  // namespace
}  // namespace cwc
