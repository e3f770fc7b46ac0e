#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace xdbft::obs {
namespace {

TEST(JsonQuoteTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(JsonQuote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(JsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonNumberTest, RendersIntegersWithoutExponent) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-7.0), "-7");
}

TEST(JsonNumberTest, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(HUGE_VAL), "null");
}

TEST(ParseJsonTest, ParsesNestedDocument) {
  auto doc = ParseJson(
      R"({"a": 1.5, "b": [true, false, null, "s"], "c": {"d": -2}})");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->number_value, 1.5);
  const JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array.size(), 4u);
  EXPECT_TRUE(b->array[0].bool_value);
  EXPECT_TRUE(b->array[2].is_null());
  EXPECT_EQ(b->array[3].string_value, "s");
  const JsonValue* d = doc->FindPath("c.d");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->number_value, -2.0);
}

// The parser recurses once per array or object level; a hostile document
// nested far past the limit is rejected instead of overflowing the stack.
TEST(ParseJsonTest, RejectsDeepNesting) {
  constexpr int kDeep = 100000;
  const std::string arrays = std::string(kDeep, '[') + std::string(kDeep, ']');
  auto a = ParseJson(arrays);
  ASSERT_FALSE(a.ok());
  EXPECT_TRUE(a.status().IsInvalidArgument()) << a.status();
  std::string objects;
  for (int i = 0; i < kDeep; ++i) objects += "{\"k\":";
  objects += "0" + std::string(kDeep, '}');
  auto o = ParseJson(objects);
  ASSERT_FALSE(o.ok());
  EXPECT_TRUE(o.status().IsInvalidArgument()) << o.status();
}

TEST(ParseJsonTest, ParsesNestingAtTheLimit) {
  constexpr int kLimit = 256;
  auto at = ParseJson(std::string(kLimit, '[') + std::string(kLimit, ']'));
  ASSERT_TRUE(at.ok()) << at.status();
  int depth = 1;
  for (const JsonValue* v = &*at; !v->array.empty(); v = &v->array[0]) {
    ++depth;
  }
  EXPECT_EQ(depth, kLimit);
  auto over =
      ParseJson(std::string(kLimit + 1, '[') + std::string(kLimit + 1, ']'));
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsInvalidArgument()) << over.status();
}

TEST(ParseJsonTest, QuoteRoundTrips) {
  const std::string original = "a \"quoted\" \\ line\nwith\ttabs";
  auto doc = ParseJson(JsonQuote(original));
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is_string());
  EXPECT_EQ(doc->string_value, original);
}

TEST(ParseJsonTest, ParsesUnicodeEscapes) {
  auto doc = ParseJson(R"("\u0041\u00e9")");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->string_value, "A\xc3\xa9");
}

TEST(ParseJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
}

TEST(ParseJsonTest, FindReturnsNullForMissingOrWrongKind) {
  auto doc = ParseJson(R"({"a": [1, 2]})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("missing"), nullptr);
  EXPECT_EQ(doc->FindPath("a.b"), nullptr);
}

}  // namespace
}  // namespace xdbft::obs
