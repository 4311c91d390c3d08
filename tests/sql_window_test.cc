// Tests for SQL window functions (the paper's Window operator exposed
// through the query surface): row_number()/rank()/sum(x) OVER
// (PARTITION BY ... ORDER BY ...).

#include <gtest/gtest.h>

#include <map>

#include "exec/tpch.h"
#include "partition/partitioners.h"
#include "runtime/local_runtime.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace swift {
namespace {

TEST(SqlWindowParseTest, RowNumberOver) {
  auto stmt = ParseSelect(
      "select a, row_number() over (partition by g order by a desc) rn "
      "from t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectItem& it = (*stmt)->items[1];
  ASSERT_TRUE(it.window.has_value());
  EXPECT_EQ(it.window->func, WindowFunc::kRowNumber);
  EXPECT_EQ(it.window->partition_by.size(), 1u);
  ASSERT_EQ(it.window->order_by.size(), 1u);
  EXPECT_FALSE(it.window->order_by[0]->ascending);
  EXPECT_EQ(it.alias, "rn");
}

TEST(SqlWindowParseTest, SumOverIsWindowNotAggregate) {
  auto stmt = ParseSelect(
      "select sum(x) over (partition by g order by d) as running from t");
  ASSERT_TRUE(stmt.ok());
  const SelectItem& it = (*stmt)->items[0];
  EXPECT_FALSE(it.agg.has_value());
  ASSERT_TRUE(it.window.has_value());
  EXPECT_EQ(it.window->func, WindowFunc::kSum);
  ASSERT_NE(it.window->arg, nullptr);
  EXPECT_FALSE((*stmt)->HasAggregates());
  EXPECT_TRUE((*stmt)->HasWindows());
}

TEST(SqlWindowParseTest, EmptyOverClause) {
  auto stmt = ParseSelect("select rank() over () from t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE((*stmt)->items[0].window->partition_by.empty());
  EXPECT_TRUE((*stmt)->items[0].window->order_by.empty());
}

TEST(SqlWindowParseTest, CountOverRejected) {
  EXPECT_FALSE(ParseSelect("select count(*) over () from t").ok());
}

class SqlWindowRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.scale_factor = 0.001;
    ASSERT_TRUE(GenerateTpch(cfg, runtime_.catalog()).ok());
  }
  LocalRuntime runtime_;
};

TEST_F(SqlWindowRuntimeTest, RowNumberPerPartition) {
  auto got = runtime_.ExecuteSql(
      "select n_regionkey, n_name, "
      " row_number() over (partition by n_regionkey order by n_name) as rn "
      "from tpch_nation order by n_regionkey, rn");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->num_rows(), 25u);
  // Each region has 5 nations numbered 1..5 in name order.
  std::map<int64_t, int64_t> expect_next;
  for (const Row& r : got->rows) {
    const int64_t region = r[0].int64();
    const int64_t rn = r[2].int64();
    EXPECT_EQ(rn, ++expect_next[region] == rn ? rn : expect_next[region]);
  }
  for (const auto& [region, count] : expect_next) EXPECT_EQ(count, 5);
}

TEST_F(SqlWindowRuntimeTest, RankTiesShareRank) {
  auto got = runtime_.ExecuteSql(
      "select o_orderstatus, "
      " rank() over (partition by o_orderstatus order by o_orderdate) as rk "
      "from tpch_orders");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got->num_rows(), 0u);
  for (const Row& r : got->rows) EXPECT_GE(r[1].int64(), 1);
}

TEST_F(SqlWindowRuntimeTest, RunningSumIsMonotonePerPartition) {
  auto got = runtime_.ExecuteSql(
      "select c_nationkey, "
      " sum(c_acctbal) over (partition by c_nationkey order by c_custkey) "
      " as running "
      "from tpch_customer where c_acctbal > 0");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got->num_rows(), 0u);
}

// A running SUM takes the group SUM's rule: an int64 argument sums
// exactly past 2^53, so the last running value of a partition equals
// the group SUM over it.
TEST_F(SqlWindowRuntimeTest, RunningSumOfInt64IsExactLikeGroupSum) {
  auto running = runtime_.ExecuteSql(
      "select n_regionkey, n_nationkey, "
      " sum(n_nationkey + 9007199254740992) over (partition by n_regionkey "
      " order by n_nationkey) as running "
      "from tpch_nation order by n_regionkey, n_nationkey");
  ASSERT_TRUE(running.ok()) << running.status().ToString();
  auto group = runtime_.ExecuteSql(
      "select sum(n_nationkey + 9007199254740992) from tpch_nation "
      "where n_regionkey = 0");
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  ASSERT_EQ(group->num_rows(), 1u);
  ASSERT_TRUE(group->rows[0][0].is_int64());
  EXPECT_EQ(group->rows[0][0].int64(), int64_t{45035996273705010});
  const Row* last_of_region0 = nullptr;
  for (const Row& r : running->rows) {
    ASSERT_TRUE(r[2].is_int64()) << r[2].ToString();
    if (r[0].int64() == 0) last_of_region0 = &r;
  }
  ASSERT_NE(last_of_region0, nullptr);
  EXPECT_EQ((*last_of_region0)[2].int64(), int64_t{45035996273705010});
}

TEST_F(SqlWindowRuntimeTest, WindowStageEmitsBarrierEdges) {
  auto plan = PlanSql(
      "select n_name, row_number() over (partition by n_regionkey "
      "order by n_name) rn from tpch_nation",
      *runtime_.catalog());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool window_found = false;
  for (const auto& [id, p] : plan->stages) {
    for (const LocalOpDesc& op : p.ops) {
      if (op.kind == LocalOpDesc::Kind::kWindow) {
        window_found = true;
        for (StageId out : plan->dag.outputs(id)) {
          EXPECT_EQ(plan->dag.EdgeKindOf(id, out), EdgeKind::kBarrier);
        }
      }
    }
  }
  EXPECT_TRUE(window_found);
  auto graphlets = ShuffleModeAwarePartitioner().Partition(plan->dag);
  ASSERT_TRUE(graphlets.ok());
  EXPECT_GE(graphlets->graphlets.size(), 2u);
}

TEST_F(SqlWindowRuntimeTest, GlobalWindowSingleTask) {
  auto got = runtime_.ExecuteSql(
      "select n_name, row_number() over (order by n_name desc) rn "
      "from tpch_nation order by rn limit 3");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->num_rows(), 3u);
  EXPECT_EQ(got->rows[0][0].str(), "VIETNAM");  // last alphabetically
  EXPECT_EQ(got->rows[0][1].int64(), 1);
}

TEST_F(SqlWindowRuntimeTest, MixedWithGroupByRejected) {
  auto st = runtime_.ExecuteSql(
      "select n_regionkey, count(*), row_number() over () "
      "from tpch_nation group by n_regionkey").status();
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
}

TEST_F(SqlWindowRuntimeTest, DifferentPartitionByRejected) {
  auto st = runtime_.ExecuteSql(
      "select row_number() over (partition by n_regionkey) a, "
      " row_number() over (partition by n_name) b from tpch_nation")
      .status();
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace swift
