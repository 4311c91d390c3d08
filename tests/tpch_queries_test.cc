// End-to-end TPC-H query suite on the local runtime: every runnable
// query executes through the full distributed path and is checked
// against an independently computed reference over the generated data.

#include "sql/tpch_queries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "exec/tpch.h"
#include "runtime/local_runtime.h"
#include "reference_ops.h"

namespace swift {
namespace {

class TpchQueriesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runtime_ = new LocalRuntime();
    TpchConfig cfg;
    cfg.scale_factor = 0.002;
    ASSERT_TRUE(GenerateTpch(cfg, runtime_->catalog()).ok());
  }
  static void TearDownTestSuite() {
    delete runtime_;
    runtime_ = nullptr;
  }

  Batch Run(int q) {
    auto sql = TpchQuerySql(q);
    EXPECT_TRUE(sql.ok()) << sql.status().ToString();
    auto got = runtime_->ExecuteSql(*sql);
    EXPECT_TRUE(got.ok()) << "Q" << q << ": " << got.status().ToString();
    return got.ok() ? *std::move(got) : Batch{};
  }

  static std::shared_ptr<Table> T(const char* name) {
    return *runtime_->catalog()->Lookup(name);
  }

  static LocalRuntime* runtime_;
};

LocalRuntime* TpchQueriesTest::runtime_ = nullptr;

TEST_F(TpchQueriesTest, AllRunnableQueriesExecute) {
  for (int q : RunnableTpchQueries()) {
    Batch b = Run(q);
    EXPECT_GE(b.schema.num_fields(), 1u) << "Q" << q;
  }
  EXPECT_FALSE(TpchQuerySql(2).ok());  // not in the runnable subset
}

TEST_F(TpchQueriesTest, Q1MatchesReference) {
  Batch got = Run(1);
  auto lineitem = T("tpch_lineitem");
  struct Agg {
    double qty = 0, price = 0, disc_price = 0, disc = 0;
    int64_t n = 0;
  };
  std::map<std::pair<std::string, std::string>, Agg> ref;
  for (const Row& r : ref::Rows(*lineitem)) {
    if (r[10].str() > "1998-09-02") continue;
    Agg& a = ref[{r[8].str(), r[9].str()}];
    a.qty += r[4].float64();
    a.price += r[5].float64();
    a.disc_price += r[5].float64() * (1 - r[6].float64());
    a.disc += r[6].float64();
    a.n += 1;
  }
  ASSERT_EQ(got.num_rows(), ref.size());
  for (const Row& r : got.rows) {
    const Agg& a = ref.at({r[0].str(), r[1].str()});
    EXPECT_NEAR(r[2].AsDouble(), a.qty, 1e-6 * (1 + a.qty));
    EXPECT_NEAR(r[3].AsDouble(), a.price, 1e-6 * (1 + a.price));
    EXPECT_NEAR(r[4].AsDouble(), a.disc_price, 1e-6 * (1 + a.disc_price));
    EXPECT_NEAR(r[5].AsDouble(), a.qty / a.n, 1e-9 * (1 + a.qty));
    EXPECT_EQ(r[7].int64(), a.n);
  }
  // Ordered by (returnflag, linestatus).
  for (std::size_t i = 1; i < got.rows.size(); ++i) {
    const auto prev = std::make_pair(got.rows[i - 1][0].str(),
                                     got.rows[i - 1][1].str());
    const auto cur =
        std::make_pair(got.rows[i][0].str(), got.rows[i][1].str());
    EXPECT_LT(prev, cur);
  }
}

TEST_F(TpchQueriesTest, Q6MatchesReference) {
  Batch got = Run(6);
  auto lineitem = T("tpch_lineitem");
  double want = 0;
  for (const Row& r : ref::Rows(*lineitem)) {
    const std::string& d = r[10].str();
    const double disc = r[6].float64();
    if (d >= "1994-01-01" && d < "1995-01-01" && disc >= 0.05 &&
        disc <= 0.07 && r[4].float64() < 24) {
      want += r[5].float64() * disc;
    }
  }
  ASSERT_EQ(got.num_rows(), 1u);
  EXPECT_NEAR(got.rows[0][0].AsDouble(), want, 1e-6 * (1 + std::abs(want)));
}

TEST_F(TpchQueriesTest, Q12MatchesReference) {
  Batch got = Run(12);
  auto lineitem = T("tpch_lineitem");
  std::map<std::string, int64_t> ref;
  for (const Row& r : ref::Rows(*lineitem)) {
    const std::string& mode = r[11].str();
    const std::string& d = r[10].str();
    if ((mode == "MAIL" || mode == "SHIP") && d >= "1994-01-01" &&
        d < "1995-01-01") {
      ++ref[mode];
    }
  }
  // Drop empty groups the query wouldn't emit.
  ASSERT_EQ(got.num_rows(), ref.size());
  for (const Row& r : got.rows) {
    EXPECT_EQ(r[1].int64(), ref.at(r[0].str()));
  }
}

TEST_F(TpchQueriesTest, Q3TopTenOrderedByRevenue) {
  Batch got = Run(3);
  ASSERT_LE(got.num_rows(), 10u);
  for (std::size_t i = 1; i < got.rows.size(); ++i) {
    EXPECT_GE(got.rows[i - 1][1].AsDouble(), got.rows[i][1].AsDouble());
  }
}

TEST_F(TpchQueriesTest, Q5RevenuePerNationConsistent) {
  Batch got = Run(5);
  // Reference via plain maps.
  auto customer = T("tpch_customer");
  auto orders = T("tpch_orders");
  auto lineitem = T("tpch_lineitem");
  auto supplier = T("tpch_supplier");
  auto nation = T("tpch_nation");
  auto region = T("tpch_region");
  std::map<int64_t, std::string> region_name;
  for (const Row& r : ref::Rows(*region)) {
    region_name[r[0].int64()] = r[1].str();
  }
  std::map<int64_t, std::pair<std::string, std::string>> nation_info;
  for (const Row& r : ref::Rows(*nation)) {
    nation_info[r[0].int64()] = {r[1].str(), region_name[r[2].int64()]};
  }
  std::map<int64_t, int64_t> supp_nation;
  for (const Row& r : ref::Rows(*supplier)) {
    supp_nation[r[0].int64()] = r[2].int64();
  }
  std::set<int64_t> building_window_orders;
  std::map<int64_t, bool> order_in_window;
  for (const Row& r : ref::Rows(*orders)) {
    order_in_window[r[0].int64()] =
        r[4].str() >= "1994-01-01" && r[4].str() < "1995-01-01";
  }
  (void)customer;
  std::map<std::string, double> ref;
  for (const Row& l : ref::Rows(*lineitem)) {
    if (!order_in_window[l[0].int64()]) continue;
    const auto& [nname, rname] = nation_info[supp_nation[l[2].int64()]];
    if (rname != "ASIA") continue;
    ref[nname] += l[5].float64() * (1 - l[6].float64());
  }
  ASSERT_EQ(got.num_rows(), ref.size());
  for (const Row& r : got.rows) {
    EXPECT_NEAR(r[1].AsDouble(), ref.at(r[0].str()),
                1e-6 * (1 + std::abs(ref.at(r[0].str()))));
  }
}

TEST_F(TpchQueriesTest, Q18HavingThresholdHolds) {
  Batch got = Run(18);
  for (const Row& r : got.rows) {
    EXPECT_GT(r[5].AsDouble(), 150.0);
  }
  // Ordered by o_totalprice desc.
  for (std::size_t i = 1; i < got.rows.size(); ++i) {
    EXPECT_GE(got.rows[i - 1][4].AsDouble(), got.rows[i][4].AsDouble());
  }
}

TEST_F(TpchQueriesTest, Q19PredicateCombination) {
  Batch got = Run(19);
  auto lineitem = T("tpch_lineitem");
  auto part = T("tpch_part");
  std::map<int64_t, std::string> brand;
  for (const Row& r : ref::Rows(*part)) brand[r[0].int64()] = r[3].str();
  double want = 0;
  for (const Row& l : ref::Rows(*lineitem)) {
    const double q = l[4].float64();
    const std::string& mode = l[11].str();
    if (brand[l[1].int64()] == "Brand#12" && q >= 1 && q <= 11 &&
        (mode == "AIR" || mode == "REG AIR")) {
      want += l[5].float64() * (1 - l[6].float64());
    }
  }
  ASSERT_EQ(got.num_rows(), 1u);
  if (want == 0) {
    EXPECT_TRUE(got.rows[0][0].is_null());  // SUM over empty input
  } else {
    EXPECT_NEAR(got.rows[0][0].AsDouble(), want,
                1e-6 * (1 + std::abs(want)));
  }
}

}  // namespace
}  // namespace swift
