#include "event/value.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <unordered_set>

namespace dbsp {
namespace {

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value(std::int64_t{5}).type(), ValueType::Int);
  EXPECT_EQ(Value(5).type(), ValueType::Int);
  EXPECT_EQ(Value(5.0).type(), ValueType::Double);
  EXPECT_EQ(Value("abc").type(), ValueType::String);
  EXPECT_EQ(Value(std::string("abc")).type(), ValueType::String);
  EXPECT_EQ(Value(true).type(), ValueType::Bool);
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value(20).equals(Value(20.0)));
  EXPECT_TRUE(Value(20.0).equals(Value(20)));
  EXPECT_FALSE(Value(20).equals(Value(20.5)));
  EXPECT_TRUE(Value(20).equals(Value(20)));
}

TEST(ValueTest, TypeMismatchNeverEqualNorLess) {
  EXPECT_FALSE(Value("5").equals(Value(5)));
  EXPECT_FALSE(Value(true).equals(Value(1)));
  EXPECT_FALSE(Value("5").less(Value(5)));
  EXPECT_FALSE(Value(5).less(Value("5")));
}

TEST(ValueTest, NumericOrdering) {
  EXPECT_TRUE(Value(3).less(Value(3.5)));
  EXPECT_FALSE(Value(3.5).less(Value(3)));
  EXPECT_TRUE(Value(-1.0).less(Value(0)));
  EXPECT_FALSE(Value(3).less(Value(3.0)));
}

TEST(ValueTest, StringOrdering) {
  EXPECT_TRUE(Value("abc").less(Value("abd")));
  EXPECT_FALSE(Value("b").less(Value("a")));
}

TEST(ValueTest, BoolOrdering) {
  EXPECT_TRUE(Value(false).less(Value(true)));
  EXPECT_FALSE(Value(true).less(Value(false)));
  EXPECT_FALSE(Value(true).less(Value(true)));
}

TEST(ValueTest, KeyLessIsStrictWeakOrderAcrossTypes) {
  // Numeric < string < bool by rank; within a rank the natural order.
  EXPECT_TRUE(Value(7).key_less(Value("a")));
  EXPECT_TRUE(Value("a").key_less(Value(true)));
  EXPECT_FALSE(Value(true).key_less(Value(7)));
  EXPECT_FALSE(Value(7).key_less(Value(7.0)));
  EXPECT_FALSE(Value(7.0).key_less(Value(7)));
}

TEST(ValueTest, HashConsistentWithNumericEquality) {
  EXPECT_EQ(Value(20).hash(), Value(20.0).hash());
  std::unordered_set<Value> set;
  set.insert(Value(20));
  EXPECT_EQ(set.count(Value(20.0)), 1u);
  set.insert(Value("x"));
  EXPECT_EQ(set.size(), 2u);
}

TEST(ValueTest, IntAgainstDoubleIsExactPastTwoToThe53) {
  // 2^53 + 1 is no double: it rounds to 2^53, but it is not equal to it.
  const Value odd(std::int64_t{9007199254740993});
  const Value even(std::int64_t{9007199254740992});
  const Value as_double(9007199254740992.0);
  EXPECT_FALSE(odd.equals(as_double));
  EXPECT_FALSE(as_double.equals(odd));
  EXPECT_TRUE(even.equals(as_double));
  EXPECT_TRUE(as_double.less(odd));
  EXPECT_FALSE(odd.less(as_double));
  EXPECT_FALSE(even.less(as_double));
  EXPECT_TRUE(as_double.key_less(odd));
  EXPECT_FALSE(odd.numeric_is_exact());
  EXPECT_TRUE(even.numeric_is_exact());
  // Fractions, the int64 range's ends, infinities and NaN.
  EXPECT_TRUE(Value(std::int64_t{-3}).less(Value(-2.5)));
  EXPECT_TRUE(Value(-3.5).less(Value(std::int64_t{-3})));
  const Value max(std::numeric_limits<std::int64_t>::max());
  const Value min(std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(max.less(Value(9223372036854775808.0)));  // 2^63
  EXPECT_FALSE(max.equals(Value(9223372036854775808.0)));
  EXPECT_TRUE(min.equals(Value(-9223372036854775808.0)));
  EXPECT_TRUE(Value(-std::numeric_limits<double>::infinity()).less(min));
  EXPECT_TRUE(max.less(Value(std::numeric_limits<double>::infinity())));
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(nan.equals(odd));
  EXPECT_FALSE(nan.less(odd));
  EXPECT_FALSE(odd.less(nan));
}

TEST(ValueTest, HashAgreesWithExactEquality) {
  const Value odd(std::int64_t{9007199254740993});
  const Value as_double(9007199254740992.0);
  EXPECT_EQ(Value(std::int64_t{9007199254740992}).hash(), as_double.hash());
  EXPECT_EQ(Value(std::int64_t{-9007199254740992}).hash(), Value(-9007199254740992.0).hash());
  std::unordered_set<Value> set;
  set.insert(odd);
  set.insert(as_double);
  EXPECT_EQ(set.size(), 2u);
  set.insert(Value(std::int64_t{9007199254740992}));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.count(Value(std::int64_t{9007199254740993})), 1u);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(5).to_string(), "5");
  EXPECT_EQ(Value("hi").to_string(), "'hi'");
  EXPECT_EQ(Value(true).to_string(), "true");
  EXPECT_EQ(Value(false).to_string(), "false");
}

TEST(ValueTest, SizeBytesCountsLongStringPayload) {
  const Value small("ab");
  const Value big(std::string(100, 'x'));
  EXPECT_GT(big.size_bytes(), small.size_bytes());
  EXPECT_GE(big.size_bytes(), sizeof(Value) + 100);
}

}  // namespace
}  // namespace dbsp
