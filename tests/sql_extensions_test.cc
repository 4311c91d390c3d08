// Tests for the extended SQL surface: BETWEEN, IN, IS [NOT] NULL,
// HAVING, and the NULL-aware functions is_null / coalesce.

#include <gtest/gtest.h>

#include "exec/tpch.h"
#include "runtime/local_runtime.h"
#include "sql/parser.h"
#include "reference_ops.h"

namespace swift {
namespace {

TEST(SqlExtensionParseTest, BetweenDesugarsToRangeConjunction) {
  auto stmt = ParseSelect("select * from t where a between 1 and 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->where->ToString(), "((a >= 1) and (a <= 3))");
}

TEST(SqlExtensionParseTest, BetweenBindsTighterThanAnd) {
  auto stmt =
      ParseSelect("select * from t where a between 1 and 3 and b = 2");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->ToString(),
            "(((a >= 1) and (a <= 3)) and (b = 2))");
}

TEST(SqlExtensionParseTest, NotBetween) {
  auto stmt = ParseSelect("select * from t where a not between 1 and 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->ToString(), "not ((a >= 1) and (a <= 3))");
}

TEST(SqlExtensionParseTest, InDesugarsToEqualityDisjunction) {
  auto stmt = ParseSelect("select * from t where x in (1, 2, 3)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->ToString(),
            "(((x = 1) or (x = 2)) or (x = 3))");
}

TEST(SqlExtensionParseTest, NotInAndSingleElement) {
  auto stmt = ParseSelect("select * from t where x not in ('a')");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->ToString(), "not (x = 'a')");
}

TEST(SqlExtensionParseTest, IsNullAndIsNotNull) {
  auto stmt = ParseSelect("select * from t where a is null and b is not null");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->where->ToString(),
            "(is_null(a) and not is_null(b))");
}

TEST(SqlExtensionParseTest, HavingParses) {
  auto stmt = ParseSelect(
      "select a, count(*) as n from t group by a having n > 5");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE((*stmt)->having, nullptr);
  EXPECT_EQ((*stmt)->having->ToString(), "(n > 5)");
}

TEST(SqlExtensionParseTest, EmptyInListRejected) {
  EXPECT_FALSE(ParseSelect("select * from t where x in ()").ok());
}

class SqlExtensionRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.scale_factor = 0.001;
    ASSERT_TRUE(GenerateTpch(cfg, runtime_.catalog()).ok());
    // A table with NULLs for IS NULL / coalesce tests.
    auto t = MakeTable(
        "sparse", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}),
        {{Value(int64_t{1}), Value(int64_t{10})},
         {Value(int64_t{2}), Value::Null()},
         {Value(int64_t{3}), Value(int64_t{30})},
         {Value(int64_t{4}), Value::Null()}});
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_TRUE(runtime_.catalog()->Register(*t).ok());
  }
  LocalRuntime runtime_;
};

TEST_F(SqlExtensionRuntimeTest, BetweenFiltersInclusive) {
  auto got = runtime_.ExecuteSql(
      "select n_nationkey from tpch_nation "
      "where n_nationkey between 3 and 5");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->num_rows(), 3u);
}

TEST_F(SqlExtensionRuntimeTest, InListFilters) {
  auto got = runtime_.ExecuteSql(
      "select n_name from tpch_nation where n_name in "
      "('FRANCE', 'GERMANY', 'ATLANTIS')");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_rows(), 2u);
}

TEST_F(SqlExtensionRuntimeTest, IsNullSelectsMissing) {
  auto got = runtime_.ExecuteSql("select k from sparse where v is null");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->num_rows(), 2u);
  auto got2 = runtime_.ExecuteSql(
      "select k from sparse where v is not null order by k");
  ASSERT_TRUE(got2.ok());
  ASSERT_EQ(got2->num_rows(), 2u);
  EXPECT_EQ(got2->rows[0][0].int64(), 1);
  EXPECT_EQ(got2->rows[1][0].int64(), 3);
}

TEST_F(SqlExtensionRuntimeTest, CoalesceReplacesNulls) {
  auto got = runtime_.ExecuteSql(
      "select k, coalesce(v, 0 - 1) as v2 from sparse order by k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->num_rows(), 4u);
  EXPECT_EQ(got->rows[0][1].int64(), 10);
  EXPECT_EQ(got->rows[1][1].int64(), -1);
  EXPECT_EQ(got->rows[3][1].int64(), -1);
}

TEST_F(SqlExtensionRuntimeTest, HavingFiltersGroups) {
  // Nations per region: region sizes are 5 each with the fixed data,
  // so pick a threshold from data: count customers per nation.
  auto got = runtime_.ExecuteSql(
      "select c_nationkey, count(*) as n from tpch_customer "
      "group by c_nationkey having n >= 5 order by n desc");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Verify against reference.
  auto customer = *runtime_.catalog()->Lookup("tpch_customer");
  std::map<int64_t, int64_t> counts;
  for (const Row& r : ref::Rows(*customer)) ++counts[r[2].int64()];
  std::size_t expected = 0;
  for (const auto& [k, n] : counts) {
    if (n >= 5) ++expected;
  }
  EXPECT_EQ(got->num_rows(), expected);
  for (const Row& r : got->rows) EXPECT_GE(r[1].int64(), 5);
}

TEST_F(SqlExtensionRuntimeTest, HavingOnGroupColumnAlias) {
  auto got = runtime_.ExecuteSql(
      "select n_regionkey, count(*) as n from tpch_nation "
      "group by n_regionkey having n_regionkey > 2");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_rows(), 2u);  // regions 3 and 4
}

TEST_F(SqlExtensionRuntimeTest, HavingWithoutGroupByRejected) {
  auto st = runtime_.ExecuteSql(
      "select n_name from tpch_nation having n_name > 'A'").status();
  EXPECT_EQ(st.code(), StatusCode::kPlanError);
}

TEST_F(SqlExtensionRuntimeTest, HavingUnknownNameRejected) {
  auto st = runtime_.ExecuteSql(
      "select n_regionkey, count(*) as n from tpch_nation "
      "group by n_regionkey having zzz > 1").status();
  EXPECT_EQ(st.code(), StatusCode::kPlanError);
}

}  // namespace
}  // namespace swift
