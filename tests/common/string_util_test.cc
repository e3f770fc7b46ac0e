#include "common/string_util.h"

#include <gtest/gtest.h>

namespace xdbft {
namespace {

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  const std::string s = "x|y|z";
  EXPECT_EQ(Join(Split(s, '|'), "|"), s);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(1.5), "1.50s");
  EXPECT_EQ(HumanDuration(90.0), "1m 30.0s");
  EXPECT_EQ(HumanDuration(3723.0), "1h 02m 03.0s");
  EXPECT_EQ(HumanDuration(-1.5), "-1.50s");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3ull * 1024 * 1024 * 1024), "3.0 GiB");
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("abcd", 2), "abcd");
}

TEST(StringUtilTest, ParseUint64ReadsTheWholeString) {
  uint64_t v = 42;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 42;
  for (const std::string& bad :
       {std::string(""), std::string("18446744073709551616"),
        std::string("18446744073709551617"), std::string("-1"),
        std::string("+1"), std::string(" 1"), std::string("1 "),
        std::string("1\0" "2", 3)}) {
    EXPECT_FALSE(ParseUint64(bad, &v)) << bad;
  }
  EXPECT_EQ(v, 42u);
}

}  // namespace
}  // namespace xdbft
