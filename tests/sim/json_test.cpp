#include "sim/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

namespace hwatch::sim {
namespace {

TEST(Json, CompactDumpKeepsInsertionOrder) {
  Json j = Json::object();
  j.set("zebra", 1);
  j.set("apple", 2);
  j.set("mango", Json::array());
  EXPECT_EQ(j.dump(), R"({"zebra":1,"apple":2,"mango":[]})");
}

TEST(Json, SetReplacesExistingKeyInPlace) {
  Json j = Json::object();
  j.set("a", 1);
  j.set("b", 2);
  j.set("a", 3);
  EXPECT_EQ(j.dump(), R"({"a":3,"b":2})");
  EXPECT_EQ(j.size(), 2u);
}

TEST(Json, IntegerTypesRoundTripExactly) {
  Json j = Json::object();
  j.set("max_u64", std::numeric_limits<std::uint64_t>::max());
  j.set("min_i64", std::numeric_limits<std::int64_t>::min());
  j.set("neg", -42);
  const std::string text = j.dump();

  std::string err;
  const Json back = Json::parse(text, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.find("max_u64")->as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(back.find("min_i64")->as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(back.find("neg")->as_int(), -42);
}

TEST(Json, DoubleFormatIsRoundTripStable) {
  Json j = Json::object();
  j.set("x", 0.1);
  j.set("y", 1e300);
  j.set("z", -2.5e-17);
  std::string err;
  const Json back = Json::parse(j.dump(), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.find("x")->as_double(), 0.1);
  EXPECT_EQ(back.find("y")->as_double(), 1e300);
  EXPECT_EQ(back.find("z")->as_double(), -2.5e-17);
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  Json j = Json::array();
  j.push_back(Json(std::numeric_limits<double>::infinity()));
  j.push_back(Json(std::nan("")));
  EXPECT_EQ(j.dump(), "[null,null]");
}

TEST(Json, StringEscapes) {
  Json j = Json(std::string("a\"b\\c\n\t\x01"));
  EXPECT_EQ(j.dump(), R"("a\"b\\c\n\t\u0001")");
  std::string err;
  const Json back = Json::parse(j.dump(), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.as_string(), "a\"b\\c\n\t\x01");
}

TEST(Json, ParseUnicodeEscapeToUtf8) {
  std::string err;
  const Json j = Json::parse(R"("\u00e9\u20ac")", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(j.as_string(), "\xc3\xa9\xe2\x82\xac");  // é €
}

TEST(Json, ParseRejectsMalformedInput) {
  std::string err;
  Json::parse("{\"a\": }", &err);
  EXPECT_FALSE(err.empty());
  err.clear();
  Json::parse("[1, 2", &err);
  EXPECT_FALSE(err.empty());
  err.clear();
  Json::parse("{\"a\":1} trailing", &err);
  EXPECT_FALSE(err.empty());
  err.clear();
  Json::parse("", &err);
  EXPECT_FALSE(err.empty());
}

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(Json, ParseAcceptsNestingUpToTheCap) {
  std::string err;
  const Json j = Json::parse(nested_arrays(Json::kMaxParseDepth), &err);
  EXPECT_TRUE(err.empty()) << err;
  std::size_t depth = 1;
  for (const Json* v = &j; v->size() > 0; v = &v->at(0)) ++depth;
  EXPECT_EQ(depth, Json::kMaxParseDepth);
  // Objects count towards the same cap as arrays.
  std::string mixed;
  for (std::size_t i = 0; i < Json::kMaxParseDepth / 2; ++i) {
    mixed += "{\"a\":[";
  }
  for (std::size_t i = 0; i < Json::kMaxParseDepth / 2; ++i) mixed += "]}";
  Json::parse(mixed, &err);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(Json, ParseRejectsNestingPastTheCap) {
  std::string err;
  const Json j = Json::parse(nested_arrays(Json::kMaxParseDepth + 1), &err);
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(err, "nesting deeper than 256 at offset 256");
  err.clear();
  Json::parse("{\"a\":" + nested_arrays(Json::kMaxParseDepth) + "}", &err);
  EXPECT_EQ(err, "nesting deeper than 256 at offset 260");
}

// 30,000 levels overflowed an 8 MiB stack before the cap; now they stop
// at the 257th.
TEST(Json, ParseRejectsFarDeeperNestingWithoutCrashing) {
  std::string err;
  Json::parse(nested_arrays(30'000), &err);
  EXPECT_EQ(err, "nesting deeper than 256 at offset 256");
  err.clear();
  std::string objects;
  for (int i = 0; i < 30'000; ++i) objects += "{\"a\":";
  Json::parse(objects, &err);
  EXPECT_EQ(err, "nesting deeper than 256 at offset 1280");
}

TEST(Json, ParseNestedDocument) {
  std::string err;
  const Json j = Json::parse(
      R"({"a":[1,2.5,"x",true,null],"b":{"c":[[]]}})", &err);
  ASSERT_TRUE(err.empty()) << err;
  const Json* a = j.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->size(), 5u);
  EXPECT_EQ(a->at(0).as_uint(), 1u);
  EXPECT_EQ(a->at(1).as_double(), 2.5);
  EXPECT_EQ(a->at(2).as_string(), "x");
  EXPECT_TRUE(a->at(3).as_bool());
  EXPECT_TRUE(a->at(4).is_null());
  ASSERT_NE(j.find("b"), nullptr);
  ASSERT_NE(j.find("b")->find("c"), nullptr);
}

TEST(Json, PrettyDumpParsesBack) {
  Json j = Json::object();
  j.set("name", "run");
  Json arr = Json::array();
  arr.push_back(Json(1));
  arr.push_back(Json(2));
  j.set("series", std::move(arr));
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  std::string err;
  const Json back = Json::parse(pretty, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.dump(), j.dump());
}

TEST(Json, DumpIsDeterministic) {
  auto build = [] {
    Json j = Json::object();
    j.set("pi", 3.141592653589793);
    j.set("n", 1234567890123456789ull);
    return j.dump(2);
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace hwatch::sim
