#include "common/strings.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string_view>
#include <vector>

namespace cwc {
namespace {

TEST(Split, BasicDelimiter) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, PreservesEmptyFields) {
  const auto parts = split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(Split, NoDelimiterIsSingleField) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

std::vector<std::string_view> all_tokens(std::string_view text) {
  std::vector<std::string_view> tokens;
  for (auto t = next_token(text); !t.empty(); t = next_token(text)) tokens.push_back(t);
  return tokens;
}

TEST(NextToken, DropsEmptyTokens) {
  const auto words = all_tokens("  the\tquick \n brown  fox ");
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], "the");
  EXPECT_EQ(words[3], "fox");
}

TEST(NextToken, EmptyAndBlankInput) {
  EXPECT_TRUE(all_tokens("").empty());
  EXPECT_TRUE(all_tokens("   \t\n ").empty());
}

TEST(NextToken, SplitsOnExactlyTheCLocaleSpaceSet) {
  // Space, \t, \n, \v, \f and \r separate tokens; NUL, DEL and bytes >= 0x80
  // (NBSP and NEL among them) belong to tokens.
  constexpr char kText[] = "a b\tc\nd\ve\ff\rg \0h\x7f \xa0i\x85 \xff";
  const auto tokens = all_tokens(std::string_view(kText, sizeof kText - 1));
  const std::vector<std::string_view> expected = {
      "a", "b", "c", "d", "e", "f", "g", std::string_view("\0h\x7f", 3), "\xa0i\x85", "\xff"};
  EXPECT_EQ(tokens, expected);
}

TEST(NextToken, ByteClassesMatchTheCLocale) {
  // The program never calls setlocale, so <cctype> answers for the C locale.
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(is_space(static_cast<char>(c)), std::isspace(c) != 0) << c;
    EXPECT_EQ(static_cast<unsigned char>(ascii_lower(static_cast<char>(c))), std::tolower(c)) << c;
  }
}

TEST(NextToken, AdvancesPastEachTokenAndViewsTheInput) {
  const std::string text = "  first second";
  std::string_view rest = text;
  const std::string_view first = next_token(rest);
  EXPECT_EQ(first, "first");
  EXPECT_EQ(first.data(), text.data() + 2);
  EXPECT_EQ(rest, " second");
  EXPECT_EQ(next_token(rest), "second");
  EXPECT_TRUE(rest.empty());
  EXPECT_TRUE(next_token(rest).empty());
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(ToLower, Ascii) {
  EXPECT_EQ(to_lower("HeLLo 123!"), "hello 123!");
  EXPECT_EQ(to_lower("@AZ[`az{\xc0\xc9"), "@az[`az{\xc0\xc9");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("makespan", "make"));
  EXPECT_FALSE(starts_with("make", "makespan"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("%d-%s-%.2f", 7, "abc", 1.5), "7-abc-1.50");
  EXPECT_EQ(format("plain"), "plain");
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"solo"}, ", "), "solo");
}

}  // namespace
}  // namespace cwc
