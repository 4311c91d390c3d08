#include "core/swift.h"

#include <gtest/gtest.h>

#include "exec/tpch.h"

namespace swift {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.scale_factor = 0.001;
    ASSERT_TRUE(GenerateTpch(cfg, system_.catalog()).ok());
  }
  SwiftSystem system_;
};

TEST_F(CoreTest, QueryReturnsRows) {
  auto r = system_.Query("select count(*) from tpch_nation");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].int64(), 25);
}

TEST_F(CoreTest, QueryWithStats) {
  auto r = system_.QueryWithStats(
      "select n_regionkey, count(*) from tpch_nation group by n_regionkey");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.num_rows(), 5u);
  EXPECT_GT(r->stats.tasks_executed, 0);
}

TEST_F(CoreTest, PlanWithoutExecuting) {
  auto plan = system_.Plan("select n_name from tpch_nation");
  ASSERT_TRUE(plan.ok());
  // The one-task scan is the sink itself.
  EXPECT_EQ(plan->stages.size(), 1u);
}

TEST_F(CoreTest, ExplainShowsGraphlets) {
  auto text = system_.Explain(
      "select n_name, r_name from tpch_nation n join tpch_region r "
      "on n.n_regionkey = r.r_regionkey order by n_name");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("GraphletPlan"), std::string::npos);
  EXPECT_NE(text->find("barrier"), std::string::npos);
}

TEST_F(CoreTest, IllTypedQueriesFailAtPlanTime) {
  // One query per type rule Bind enforces: each fails to plan with
  // InvalidArgument naming the offending expression, before any task
  // runs.
  const struct {
    const char* sql;
    const char* names;
  } cases[] = {
      {"select n_name + 1 from tpch_nation", "(n_name + 1)"},
      {"select -n_name from tpch_nation", "-n_name"},
      {"select n_name from tpch_nation where n_name = 5", "(n_name = 5)"},
      {"select n_name from tpch_nation where n_nationkey like '1%'",
       "(n_nationkey like '1%')"},
      {"select coalesce(n_name, n_nationkey) from tpch_nation",
       "coalesce(n_name, n_nationkey)"},
      {"select lower(n_nationkey) from tpch_nation", "lower(n_nationkey)"},
      {"select substr(n_name, 1) from tpch_nation", "substr(n_name, 1)"},
      {"select frobnicate(n_name) from tpch_nation", "frobnicate(n_name)"},
      {"select sum(n_name) from tpch_nation", "sum(n_name)"},
      {"select n_regionkey, avg(n_name) from tpch_nation "
       "group by n_regionkey",
       "avg(n_name)"},
      {"select n_regionkey, count(*) as c from tpch_nation "
       "group by n_regionkey having c > 'x'",
       "(c > 'x')"},
      {"select n_name from tpch_nation join tpch_region "
       "on n_name = r_regionkey",
       "(n_name = r_regionkey)"},
  };
  for (const auto& c : cases) {
    auto plan = system_.Plan(c.sql);
    ASSERT_FALSE(plan.ok()) << c.sql;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
        << c.sql << ": " << plan.status().ToString();
    EXPECT_NE(plan.status().message().find(c.names), std::string::npos)
        << c.sql << ": " << plan.status().ToString();
  }
}

TEST_F(CoreTest, ParseErrorsSurface) {
  EXPECT_EQ(system_.Query("selectx").status().code(),
            StatusCode::kParseError);
}

TEST_F(CoreTest, FormatBatchRendersTable) {
  auto r = system_.Query(
      "select n_name from tpch_nation order by n_name limit 3");
  ASSERT_TRUE(r.ok());
  std::string text = FormatBatch(*r);
  EXPECT_NE(text.find("n_name"), std::string::npos);
  EXPECT_NE(text.find("ALGERIA"), std::string::npos);
  EXPECT_NE(text.find("|"), std::string::npos);
}

TEST_F(CoreTest, FormatBatchTruncates) {
  auto r = system_.Query("select n_name from tpch_nation");
  ASSERT_TRUE(r.ok());
  std::string text = FormatBatch(*r, 5);
  EXPECT_NE(text.find("more rows"), std::string::npos);
}

TEST_F(CoreTest, InjectFailureStillCorrect) {
  auto plan = system_.Plan("select count(*) from tpch_customer");
  ASSERT_TRUE(plan.ok());
  StageId scan = -1;
  for (const auto& [id, p] : plan->stages) {
    if (!p.scan_table.empty()) scan = id;
  }
  system_.InjectFailureOnce(TaskRef{scan, 0}, FailureKind::kProcessCrash);
  auto r = system_.Query("select count(*) from tpch_customer");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto customer = *system_.catalog()->Lookup("tpch_customer");
  EXPECT_EQ(r->rows[0][0].int64(),
            static_cast<int64_t>(customer->num_rows()));
}

}  // namespace
}  // namespace swift
