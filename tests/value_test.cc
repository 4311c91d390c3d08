#include "exec/value.h"

#include <gtest/gtest.h>

#include <vector>

#include "exec/column_batch.h"
#include "exec/key_encoder.h"

namespace swift {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{3}).int64(), 3);
  EXPECT_DOUBLE_EQ(Value(2.5).float64(), 2.5);
  EXPECT_EQ(Value("abc").str(), "abc");
  EXPECT_EQ(Value(int64_t{3}).type(), DataType::kInt64);
  EXPECT_EQ(Value(2.5).type(), DataType::kFloat64);
  EXPECT_EQ(Value("x").type(), DataType::kString);
  EXPECT_EQ(Value::Null().type(), DataType::kNull);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{3}).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(int64_t{2}).Compare(Value(2.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value(int64_t{-100})), 0);
  EXPECT_LT(Value::Null().Compare(Value("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("apple").Compare(Value("banana")), 0);
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
  // ISO dates compare correctly as strings.
  EXPECT_LT(Value("1995-03-15").Compare(Value("1996-01-01")), 0);
}

TEST(ValueTest, MixedTypeTotalOrder) {
  // Numbers sort before strings; the order is total and antisymmetric.
  EXPECT_LT(Value(int64_t{5}).Compare(Value("5")), 0);
  EXPECT_GT(Value("5").Compare(Value(5.0)), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  // Values are hashed as keys by KeyEncoder: equal values hash alike,
  // whichever column type holds them.
  const auto hashes = [](const ColumnVector& col) {
    std::vector<uint64_t> h;
    std::vector<uint8_t> has_null;
    KeyEncoder::HashColumns({&col}, nullptr, col.size(), &h, &has_null);
    return h;
  };
  ColumnVector ints = ColumnVector::OfType(DataType::kInt64);
  ints.Append(Value(int64_t{3}));
  ColumnVector floats = ColumnVector::OfType(DataType::kFloat64);
  floats.Append(Value(3.0));
  ColumnVector strs = ColumnVector::OfType(DataType::kString);
  strs.Append(Value("key"));
  strs.Append(Value("key"));
  EXPECT_TRUE(Value(int64_t{3}) == Value(3.0));
  EXPECT_EQ(hashes(ints)[0], hashes(floats)[0]);
  const std::vector<uint64_t> h = hashes(strs);
  EXPECT_EQ(h[0], h[1]);
  EXPECT_NE(hashes(ints)[0], h[0]);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(ValueTest, AsDoubleWidensInt) {
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Value(1.25).AsDouble(), 1.25);
}

}  // namespace
}  // namespace swift
