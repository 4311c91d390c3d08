// Tests for LEFT OUTER JOIN: operator level (hash and merge variants),
// SQL level, and the real TPC-H Q13 against a hand-computed reference.

#include <gtest/gtest.h>

#include <map>

#include "common/string_util.h"
#include "exec/operators.h"
#include "exec/tpch.h"
#include "runtime/local_runtime.h"
#include "sql/parser.h"
#include "sql/tpch_queries.h"
#include "reference_ops.h"

namespace swift {
namespace {

OperatorPtr SourceOf(Schema schema, std::vector<Row> rows) {
  Batch b;
  b.schema = schema;
  b.rows = std::move(rows);
  std::vector<Batch> batches;
  batches.push_back(std::move(b));
  return MakeBatchSource(std::move(schema), std::move(batches));
}

OperatorPtr Customers() {
  Schema s({{"ck", DataType::kInt64}, {"cname", DataType::kString}});
  return SourceOf(s, {{Value(int64_t{1}), Value("a")},
                      {Value(int64_t{2}), Value("b")},
                      {Value(int64_t{3}), Value("c")},
                      {Value::Null(), Value("n")}});
}

OperatorPtr Orders() {
  Schema s({{"ok", DataType::kInt64}, {"oc", DataType::kInt64}});
  return SourceOf(s, {{Value(int64_t{1}), Value(int64_t{10})},
                      {Value(int64_t{1}), Value(int64_t{11})},
                      {Value(int64_t{3}), Value(int64_t{30})}});
}

Batch Collect(OperatorPtr op) {
  auto r = CollectAll(op.get());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *std::move(r) : Batch{};
}

TEST(LeftJoinOperatorTest, HashLeftOuterPadsUnmatched) {
  Batch out = Collect(MakeHashJoin(Customers(), Orders(),
                                   {Expr::Column("ck")}, {Expr::Column("ok")},
                                   JoinType::kLeftOuter));
  // customer 1: 2 matches; 2: padded; 3: 1 match; NULL-key: padded.
  ASSERT_EQ(out.num_rows(), 5u);
  int padded = 0;
  for (const Row& r : out.rows) {
    if (r[2].is_null()) {
      ++padded;
      EXPECT_TRUE(r[3].is_null());
    }
  }
  EXPECT_EQ(padded, 2);
}

TEST(LeftJoinOperatorTest, MergeLeftOuterMatchesHash) {
  auto sorted_l = MakeSort(Customers(), {SortKey{Expr::Column("ck"), true}});
  auto sorted_r = MakeSort(Orders(), {SortKey{Expr::Column("ok"), true}});
  Batch merge = Collect(MakeMergeJoin(std::move(sorted_l), std::move(sorted_r),
                                      {Expr::Column("ck")},
                                      {Expr::Column("ok")},
                                      JoinType::kLeftOuter));
  Batch hash = Collect(MakeHashJoin(Customers(), Orders(),
                                    {Expr::Column("ck")}, {Expr::Column("ok")},
                                    JoinType::kLeftOuter));
  EXPECT_EQ(merge.num_rows(), hash.num_rows());
}

TEST(LeftJoinOperatorTest, MergeLeftOuterUnmatchedTail) {
  // Left rows beyond the last right key must still be emitted.
  Schema ls({{"k", DataType::kInt64}});
  Schema rs({{"k2", DataType::kInt64}});
  Batch out = Collect(MakeMergeJoin(
      SourceOf(ls, {{Value(int64_t{1})}, {Value(int64_t{5})},
                    {Value(int64_t{9})}}),
      SourceOf(rs, {{Value(int64_t{1})}}), {Expr::Column("k")},
      {Expr::Column("k2")}, JoinType::kLeftOuter));
  ASSERT_EQ(out.num_rows(), 3u);
}

TEST(LeftJoinOperatorTest, InnerSemanticsUnchangedByDefault) {
  Batch out = Collect(MakeHashJoin(Customers(), Orders(),
                                   {Expr::Column("ck")},
                                   {Expr::Column("ok")}));
  EXPECT_EQ(out.num_rows(), 3u);  // only matches
}

TEST(LeftJoinParseTest, LeftAndLeftOuterAccepted) {
  auto a = ParseSelect("select * from c left join o on c.k = o.k");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE((*a)->joins[0].left_outer);
  auto b = ParseSelect("select * from c left outer join o on c.k = o.k");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*b)->joins[0].left_outer);
  auto c = ParseSelect("select * from c join o on c.k = o.k");
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE((*c)->joins[0].left_outer);
}

class LeftJoinRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.scale_factor = 0.002;
    ASSERT_TRUE(GenerateTpch(cfg, runtime_.catalog()).ok());
  }
  LocalRuntime runtime_;
};

TEST_F(LeftJoinRuntimeTest, CustomersWithoutOrdersAreKept) {
  auto got = runtime_.ExecuteSql(
      "select c_custkey, count(o_orderkey) as n from tpch_customer c "
      "left join tpch_orders o on c.c_custkey = o.o_custkey "
      "group by c_custkey");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto customer = *runtime_.catalog()->Lookup("tpch_customer");
  EXPECT_EQ(got->num_rows(), customer->num_rows());
  // Reference counts.
  auto orders = *runtime_.catalog()->Lookup("tpch_orders");
  std::map<int64_t, int64_t> ref;
  for (const Row& r : ref::Rows(*orders)) ++ref[r[1].int64()];
  int zero_customers = 0;
  for (const Row& r : got->rows) {
    const int64_t want = ref.count(r[0].int64()) ? ref[r[0].int64()] : 0;
    EXPECT_EQ(r[1].int64(), want);
    if (want == 0) ++zero_customers;
  }
  // The generator leaves some customers orderless (custkey % 3 == 0
  // skew), so the outer join must actually pad.
  EXPECT_GT(zero_customers, 0);
}

TEST_F(LeftJoinRuntimeTest, OnResidualMustBeRightSideOnly) {
  auto st = runtime_.ExecuteSql(
      "select count(*) from tpch_customer c left join tpch_orders o "
      "on c.c_custkey = o.o_custkey and c_acctbal > 0").status();
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
}

TEST_F(LeftJoinRuntimeTest, TpchQ13MatchesReference) {
  auto sql = TpchQuerySql(13);
  ASSERT_TRUE(sql.ok());
  auto got = runtime_.ExecuteSql(*sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  // Reference: orders per customer, excluding '%special%requests%'
  // comments; customers with none count as 0.
  auto customer = *runtime_.catalog()->Lookup("tpch_customer");
  auto orders = *runtime_.catalog()->Lookup("tpch_orders");
  std::map<int64_t, int64_t> per_customer;
  for (const Row& r : ref::Rows(*customer)) per_customer[r[0].int64()] = 0;
  for (const Row& r : ref::Rows(*orders)) {
    if (SqlLikeMatch(r[6].str(), "%special%requests%")) continue;
    ++per_customer[r[1].int64()];
  }
  std::map<int64_t, int64_t> ref;  // c_count -> custdist
  for (const auto& [ck, n] : per_customer) ++ref[n];

  ASSERT_EQ(got->num_rows(), ref.size());
  for (const Row& r : got->rows) {
    EXPECT_EQ(r[1].int64(), ref.at(r[0].int64()))
        << "c_count=" << r[0].int64();
  }
  // Ordered by custdist desc then c_count desc.
  for (std::size_t i = 1; i < got->rows.size(); ++i) {
    const auto& p = got->rows[i - 1];
    const auto& c = got->rows[i];
    EXPECT_TRUE(p[1].int64() > c[1].int64() ||
                (p[1].int64() == c[1].int64() &&
                 p[0].int64() > c[0].int64()));
  }
}

}  // namespace
}  // namespace swift
