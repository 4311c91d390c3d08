// Tests for the extended SQL surface: BETWEEN, IN, IS [NOT] NULL,
// HAVING, and the NULL-aware functions is_null / coalesce; and the one
// value order (NULL first, -0.0 = 0.0, every NaN one value above +inf)
// under both plan modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

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

TEST_F(SqlExtensionRuntimeTest, ExponentLiteralsEvaluate) {
  auto got = runtime_.ExecuteSql(
      "select 1.5e3 as a, 2e3 + 1 as b from tpch_region "
      "where r_regionkey = 0");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->num_rows(), 1u);
  EXPECT_EQ(got->rows[0][0].float64(), 1500.0);
  EXPECT_EQ(got->rows[0][1].float64(), 2001.0);
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

// ---- One value order in sort mode and hash mode -----------------------

// The float64 cells of `floats` by id, grouped into the classes of the
// value order, lowest first: NULL, -inf, zero (either sign), 0.5, 7,
// +inf, NaN (either sign).
const std::map<int64_t, int>& ClassById() {
  static const std::map<int64_t, int> classes = {
      {1, 0},  {10, 0},                     // NULL
      {7, 1},                               // -inf
      {2, 2},  {3, 2},  {14, 2},            // -0.0, 0.0, -0.0
      {11, 3},                              // 0.5
      {8, 4},  {9, 4},                      // 7.0
      {6, 5},  {13, 5},                     // +inf
      {4, 6},  {5, 6},  {12, 6}};           // NaN, -NaN, NaN
  return classes;
}

// A float64 (or NULL) cell's class in ClassById, by the rule itself.
int64_t ClassOf(const Value& v) {
  if (v.is_null()) return 0;
  const double x = v.float64();
  if (std::isnan(x)) return 6;
  if (x == -std::numeric_limits<double>::infinity()) return 1;
  if (x == 0.0) return 2;
  if (x == 0.5) return 3;
  if (x == 7.0) return 4;
  if (x == std::numeric_limits<double>::infinity()) return 5;
  ADD_FAILURE() << "unexpected cell " << v.ToString();
  return -1;
}

using Tuple = std::vector<int64_t>;

// An answer's rows with every int64 cell as itself and every float64 or
// NULL cell as its class, so two answers compare under the value order.
std::vector<Tuple> Tuples(const Batch& b) {
  std::vector<Tuple> out;
  for (const Row& r : b.rows) {
    Tuple t;
    for (const Value& v : r) t.push_back(v.is_int64() ? v.int64() : ClassOf(v));
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// (id, class) of ClassById ordered by (class, id), or by (class
// descending, id).
std::vector<Tuple> IdsByClass(bool ascending) {
  std::vector<Tuple> rows;
  for (const auto& [id, cls] : ClassById()) {
    rows.push_back({ascending ? cls : -cls, id});
  }
  std::sort(rows.begin(), rows.end());
  for (Tuple& t : rows) t = {t[1], ascending ? t[0] : -t[0]};
  return rows;
}

// Sort mode plans MergeJoin and StreamedAggregate behind sorts; hash
// mode plans HashJoin and HashAggregate, which group by encoded keys.
// Both must give the answer the value order defines.
class PlanModeParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.scale_factor = 0.001;
    ASSERT_TRUE(GenerateTpch(cfg, runtime_.catalog()).ok());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::map<int64_t, Value> cells = {
        {1, Value::Null()}, {2, Value(-0.0)}, {3, Value(0.0)},
        {4, Value(nan)},    {5, Value(-nan)}, {6, Value(inf)},
        {7, Value(-inf)},   {8, Value(7.0)},  {9, Value(7.0)},
        {10, Value::Null()}, {11, Value(0.5)}, {12, Value(nan)},
        {13, Value(inf)},   {14, Value(-0.0)}};
    std::vector<Row> rows;
    for (const auto& [id, x] : cells) rows.push_back({Value(id), x});
    auto t = MakeTable(
        "floats", Schema({{"id", DataType::kInt64}, {"x", DataType::kFloat64}}),
        rows);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_TRUE(runtime_.catalog()->Register(*t).ok());
  }

  // `sql`'s answer in sort mode and in hash mode.
  std::pair<Batch, Batch> Run(const std::string& sql) {
    Batch answers[2];
    for (const bool sort_mode : {true, false}) {
      PlannerConfig planner;
      planner.sort_mode = sort_mode;
      Result<Batch> got = runtime_.ExecuteSql(sql, planner);
      EXPECT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      if (got.ok()) answers[sort_mode ? 0 : 1] = *std::move(got);
    }
    return {std::move(answers[0]), std::move(answers[1])};
  }

  // Both modes give `want` as a multiset.
  void ExpectMultiset(const std::string& sql, const std::vector<Tuple>& want) {
    const auto [sorted, hashed] = Run(sql);
    EXPECT_EQ(Sorted(Tuples(sorted)), Sorted(Tuples(hashed))) << sql;
    EXPECT_EQ(Sorted(Tuples(sorted)), Sorted(want)) << sql;
  }

  // Both modes give `want` row for row.
  void ExpectRows(const std::string& sql, const std::vector<Tuple>& want) {
    const auto [sorted, hashed] = Run(sql);
    EXPECT_EQ(Tuples(sorted), want) << sql << " (sort mode)";
    EXPECT_EQ(Tuples(hashed), want) << sql << " (hash mode)";
  }

  LocalRuntime runtime_;
};

TEST_F(PlanModeParityTest, GroupByCountsOneGroupPerValue) {
  std::map<int64_t, int64_t> counts;
  for (const auto& [id, cls] : ClassById()) ++counts[cls];
  std::vector<Tuple> want;
  for (const auto& [cls, n] : counts) want.push_back({cls, n});
  ExpectMultiset("select x, count(*) as n from floats group by x", want);
}

TEST_F(PlanModeParityTest, SelfJoinMatchesEqualValues) {
  std::vector<Tuple> want;
  for (const auto& [a, ca] : ClassById()) {
    for (const auto& [b, cb] : ClassById()) {
      if (ca != 0 && ca == cb) want.push_back({a, b});
    }
  }
  ExpectMultiset(
      "select a.id as l, b.id as r from floats a join floats b on a.x = b.x",
      want);
}

TEST_F(PlanModeParityTest, OrderByPutsNaNAfterInfinity) {
  ExpectRows("select id, x from floats order by x, id", IdsByClass(true));
  ExpectRows("select id, x from floats order by x desc, id",
             IdsByClass(false));
}

TEST_F(PlanModeParityTest, WindowPartitionsByValue) {
  std::map<int64_t, int64_t> seen;  // class -> rows so far, in id order
  std::vector<Tuple> row_numbers, ranks;
  for (const auto& [id, cls] : ClassById()) {
    row_numbers.push_back({id, ++seen[cls]});
    ranks.push_back({id, 1});  // every order key of a partition ties
  }
  ExpectMultiset(
      "select id, row_number() over (partition by x order by id) as rn "
      "from floats",
      row_numbers);
  ExpectMultiset(
      "select id, rank() over (partition by x order by x) as rk from floats",
      ranks);
}

TEST_F(PlanModeParityTest, MinMaxTakeNaNAsLargest) {
  ExpectMultiset("select min(x) as lo, max(x) as hi, count(x) as n from floats",
                 {{1, 6, 12}});
}

TEST_F(PlanModeParityTest, FiltersCompareUnderTheOrder) {
  const auto ids = [](const std::vector<int>& classes) {
    std::vector<Tuple> out;
    for (const auto& [id, cls] : ClassById()) {
      if (std::find(classes.begin(), classes.end(), cls) != classes.end()) {
        out.push_back({id});
      }
    }
    return out;
  };
  ExpectMultiset("select id from floats where x = 7.0", ids({4}));
  ExpectMultiset("select id from floats where x < 1.0", ids({1, 2, 3}));
  ExpectMultiset("select id from floats where x > 1.0", ids({4, 5, 6}));
  ExpectMultiset("select id from floats where x = x", ids({1, 2, 3, 4, 5, 6}));
}

// A zero group key and a zero MIN/MAX read +0.0 in both modes, whether
// the first zero row holds -0.0 or 0.0.
TEST_F(PlanModeParityTest, ZeroKeyAndMinMaxArePositiveZero) {
  const std::map<std::string, std::vector<double>> tables = {
      {"zeros_neg_first", {-0.0, 0.0, -0.0}},
      {"zeros_pos_first", {0.0, -0.0, -0.0}}};
  for (const auto& [name, xs] : tables) {
    std::vector<Row> rows;
    for (double x : xs) rows.push_back({Value(x)});
    auto t = MakeTable(name, Schema({{"x", DataType::kFloat64}}), rows);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_TRUE(runtime_.catalog()->Register(*t).ok());
    for (const std::string& sql :
         {"select x, count(*) as n from " + name + " group by x",
          "select min(x) as lo, max(x) as hi, count(*) as n from " + name}) {
      const auto [sorted, hashed] = Run(sql);
      for (const Batch* b : {&sorted, &hashed}) {
        const char* mode = b == &sorted ? "sort mode" : "hash mode";
        ASSERT_EQ(b->num_rows(), 1u) << sql << " " << mode;
        const Row& r = b->rows[0];
        for (std::size_t c = 0; c + 1 < r.size(); ++c) {
          EXPECT_EQ(r[c].float64(), 0.0) << sql << " " << mode;
          EXPECT_FALSE(std::signbit(r[c].float64()))
              << sql << " " << mode << " column " << c;
        }
        EXPECT_EQ(r.back().int64(), 3) << sql << " " << mode;
      }
    }
  }
}

// h is NaN for nation 3 (0 * inf) and n_nationkey (+ 1/inf = 0) for the
// other 24: 25 distinct values, each equal only to itself.
TEST_F(PlanModeParityTest, NaNKeyFromAnExpressionIsOneGroup) {
  const std::string e = "100000000000000000000.0";
  std::string inf = e;
  for (int i = 1; i < 16; ++i) inf += "*" + e;
  const auto h = [&](const std::string& t) {
    return t + "n_nationkey + 1.0 / ((" + t + "n_nationkey - 3.0) * (" + inf +
           "))";
  };
  const auto [groups_sorted, groups_hashed] = Run(
      "select " + h("") + " as h, count(*) as n from tpch_nation group by h");
  EXPECT_EQ(groups_sorted.num_rows(), 25u);
  EXPECT_EQ(groups_hashed.num_rows(), 25u);
  for (const Batch* groups : {&groups_sorted, &groups_hashed}) {
    for (const Row& r : groups->rows) EXPECT_EQ(r[1].int64(), 1);
  }
  const std::vector<Tuple> one_count = {{25}};
  ExpectRows("select count(*) as n from tpch_nation a join tpch_nation b on " +
                 h("a.") + " = " + h("b."),
             one_count);
  ExpectRows("select n_nationkey from tpch_nation where " + h("") + " = 7.0",
             {{7}});
}

}  // namespace
}  // namespace swift
