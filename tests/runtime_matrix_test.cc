// Parameterized end-to-end sweep: every (shuffle scheme x planning
// mode) combination must produce identical, reference-checked results
// for a set of representative queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "exec/tpch.h"
#include "runtime/local_runtime.h"
#include "reference_ops.h"

namespace swift {
namespace {

struct MatrixParam {
  std::optional<ShuffleKind> force_kind;  // nullopt = adaptive
  bool sort_mode;
};

std::string ParamName(const ::testing::TestParamInfo<MatrixParam>& info) {
  std::string s = info.param.force_kind.has_value()
                      ? std::string(ShuffleKindToString(*info.param.force_kind))
                      : "adaptive";
  s += info.param.sort_mode ? "_sortmode" : "_hashmode";
  return s;
}

class RuntimeMatrixTest : public ::testing::TestWithParam<MatrixParam> {
 protected:
  void SetUp() override {
    LocalRuntimeConfig cfg;
    cfg.force_shuffle_kind = GetParam().force_kind;
    runtime_ = std::make_unique<LocalRuntime>(cfg);
    TpchConfig tpch;
    tpch.scale_factor = 0.001;
    ASSERT_TRUE(GenerateTpch(tpch, runtime_->catalog()).ok());
    planner_.sort_mode = GetParam().sort_mode;
  }

  Batch Run(const std::string& sql) {
    auto got = runtime_->ExecuteSql(sql, planner_);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    return got.ok() ? *std::move(got) : Batch{};
  }

  std::unique_ptr<LocalRuntime> runtime_;
  PlannerConfig planner_;
};

TEST_P(RuntimeMatrixTest, CountsPerRegion) {
  Batch got = Run(
      "select n_regionkey, count(*) as n from tpch_nation "
      "group by n_regionkey order by n_regionkey");
  ASSERT_EQ(got.num_rows(), 5u);
  for (const Row& r : got.rows) EXPECT_EQ(r[1].int64(), 5);
}

TEST_P(RuntimeMatrixTest, FilteredScanCount) {
  Batch got = Run(
      "select count(*) from tpch_lineitem where l_quantity >= 25");
  auto lineitem = *runtime_->catalog()->Lookup("tpch_lineitem");
  int64_t want = 0;
  for (const Row& r : ref::Rows(*lineitem)) {
    if (r[4].float64() >= 25) ++want;
  }
  ASSERT_EQ(got.num_rows(), 1u);
  EXPECT_EQ(got.rows[0][0].int64(), want);
}

TEST_P(RuntimeMatrixTest, JoinAggregate) {
  Batch got = Run(
      "select r_name, count(*) as nations from tpch_region r "
      "join tpch_nation n on r.r_regionkey = n.n_regionkey "
      "group by r_name order by r_name");
  ASSERT_EQ(got.num_rows(), 5u);
  EXPECT_EQ(got.rows[0][0].str(), "AFRICA");
  for (const Row& r : got.rows) EXPECT_EQ(r[1].int64(), 5);
}

TEST_P(RuntimeMatrixTest, ThreeWayJoinRowCount) {
  Batch got = Run(
      "select count(*) from tpch_supplier s "
      "join tpch_nation n on s.s_nationkey = n.n_nationkey "
      "join tpch_region r on n.n_regionkey = r.r_regionkey");
  auto supplier = *runtime_->catalog()->Lookup("tpch_supplier");
  // Every supplier has exactly one nation and region.
  ASSERT_EQ(got.num_rows(), 1u);
  EXPECT_EQ(got.rows[0][0].int64(),
            static_cast<int64_t>(supplier->num_rows()));
}

// A computed join key is evaluated into a key column and encoded like a
// plain one: the answer equals the plain-key join's in either planning
// mode (merge join or hash join).
TEST_P(RuntimeMatrixTest, ComputedJoinKeyMatchesPlainKey) {
  const std::string tail =
      " group by o.o_orderpriority order by o_orderpriority";
  const std::string select =
      "select o.o_orderpriority, count(*) as n, sum(l.l_quantity) as q "
      "from tpch_orders o join tpch_lineitem l on ";
  Batch plain = Run(select + "o.o_orderkey = l.l_orderkey" + tail);
  Batch computed = Run(select + "o.o_orderkey + 0 = l.l_orderkey" + tail);
  ASSERT_GT(plain.num_rows(), 0u);
  ASSERT_EQ(computed.num_rows(), plain.num_rows());
  for (std::size_t i = 0; i < plain.rows.size(); ++i) {
    ASSERT_EQ(computed.rows[i].size(), plain.rows[i].size());
    for (std::size_t c = 0; c < plain.rows[i].size(); ++c) {
      EXPECT_EQ(computed.rows[i][c].type(), plain.rows[i][c].type());
      EXPECT_EQ(computed.rows[i][c].Compare(plain.rows[i][c]), 0)
          << "row " << i << " col " << c;
    }
  }
}

TEST_P(RuntimeMatrixTest, OrderLimitTop3) {
  Batch got = Run(
      "select n_name from tpch_nation order by n_name limit 3");
  ASSERT_EQ(got.num_rows(), 3u);
  EXPECT_EQ(got.rows[0][0].str(), "ALGERIA");
  EXPECT_EQ(got.rows[1][0].str(), "ARGENTINA");
  EXPECT_EQ(got.rows[2][0].str(), "BRAZIL");
}

TEST_P(RuntimeMatrixTest, ArithmeticProjection) {
  Batch got = Run(
      "select sum(l_extendedprice * (1 - l_discount)) as revenue "
      "from tpch_lineitem where l_shipdate between '1994-01-01' and "
      "'1994-12-31'");
  auto lineitem = *runtime_->catalog()->Lookup("tpch_lineitem");
  double want = 0;
  for (const Row& r : ref::Rows(*lineitem)) {
    const std::string& d = r[10].str();
    if (d >= "1994-01-01" && d <= "1994-12-31") {
      want += r[5].float64() * (1 - r[6].float64());
    }
  }
  ASSERT_EQ(got.num_rows(), 1u);
  EXPECT_NEAR(got.rows[0][0].AsDouble(), want, 1e-6 * (1 + std::abs(want)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RuntimeMatrixTest,
    ::testing::Values(MatrixParam{std::nullopt, true},
                      MatrixParam{std::nullopt, false},
                      MatrixParam{ShuffleKind::kDirect, true},
                      MatrixParam{ShuffleKind::kLocal, true},
                      MatrixParam{ShuffleKind::kRemote, true},
                      MatrixParam{ShuffleKind::kLocal, false},
                      MatrixParam{ShuffleKind::kRemote, false}),
    ParamName);

}  // namespace
}  // namespace swift
