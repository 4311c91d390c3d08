#include "exec/operators.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include "partition_gather.h"
#include "reference_ops.h"

namespace swift {
namespace {

Schema KV() {
  return Schema({{"k", DataType::kInt64}, {"v", DataType::kString}});
}

OperatorPtr SourceOf(Schema schema, std::vector<Row> rows) {
  Batch b;
  b.schema = schema;
  b.rows = std::move(rows);
  std::vector<Batch> batches;
  batches.push_back(std::move(b));
  return MakeBatchSource(std::move(schema), std::move(batches));
}

Result<std::vector<ColumnBatch>> Partition(const Batch& b,
                                           const std::vector<ExprPtr>& keys,
                                           int n) {
  Result<ColumnBatch> cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok()) << cb.status().ToString();
  return GatherPartitions(*cb, keys, n);
}

Batch Collect(OperatorPtr op) {
  auto r = CollectAll(op.get());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *std::move(r) : Batch{};
}

TEST(OperatorsTest, BatchSourceEmitsAll) {
  Batch out = Collect(SourceOf(KV(), {{Value(int64_t{1}), Value("a")},
                                      {Value(int64_t{2}), Value("b")}}));
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.schema, KV());
}

TEST(OperatorsTest, FilterKeepsMatchingRows) {
  auto pred = Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                           Expr::Literal(Value(int64_t{1})));
  Batch out = Collect(MakeFilter(
      SourceOf(KV(), {{Value(int64_t{1}), Value("a")},
                      {Value(int64_t{2}), Value("b")},
                      {Value(int64_t{3}), Value("c")}}),
      pred));
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.rows[0][1].str(), "b");
  EXPECT_EQ(out.rows[1][1].str(), "c");
}

TEST(OperatorsTest, FilterAllRowsOut) {
  auto pred = Expr::Literal(Value(int64_t{0}));
  Batch out = Collect(MakeFilter(
      SourceOf(KV(), {{Value(int64_t{1}), Value("a")}}), pred));
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(OperatorsTest, ProjectComputesAndRenames) {
  auto doubled = Expr::Binary(BinaryOp::kMul, Expr::Column("k"),
                              Expr::Literal(Value(int64_t{2})));
  Batch out = Collect(MakeProject(
      SourceOf(KV(), {{Value(int64_t{5}), Value("z")}}), {doubled},
      {"k2"}));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.schema.field(0).name, "k2");
  EXPECT_EQ(out.rows[0][0].int64(), 10);
}

TEST(OperatorsTest, ProjectArityMismatchRejected) {
  auto op = MakeProject(SourceOf(KV(), {}), {Expr::Column("k")}, {});
  EXPECT_FALSE(op->Open().ok());
}

TEST(OperatorsTest, LimitTruncates) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({Value(i), Value("x")});
  Batch out = Collect(MakeLimit(SourceOf(KV(), rows), 3));
  EXPECT_EQ(out.num_rows(), 3u);
  Batch all = Collect(MakeLimit(SourceOf(KV(), rows), 100));
  EXPECT_EQ(all.num_rows(), 10u);
  Batch none = Collect(MakeLimit(SourceOf(KV(), rows), 0));
  EXPECT_EQ(none.num_rows(), 0u);
}

TEST(OperatorsTest, SortAscendingDescending) {
  std::vector<Row> rows = {{Value(int64_t{3}), Value("c")},
                           {Value(int64_t{1}), Value("a")},
                           {Value(int64_t{2}), Value("b")}};
  Batch asc = Collect(
      MakeSort(SourceOf(KV(), rows), {SortKey{Expr::Column("k"), true}}));
  EXPECT_EQ(asc.rows[0][0].int64(), 1);
  EXPECT_EQ(asc.rows[2][0].int64(), 3);
  Batch desc = Collect(
      MakeSort(SourceOf(KV(), rows), {SortKey{Expr::Column("k"), false}}));
  EXPECT_EQ(desc.rows[0][0].int64(), 3);
}

TEST(OperatorsTest, SortIsStable) {
  Schema s({{"k", DataType::kInt64}, {"seq", DataType::kInt64}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6; ++i) rows.push_back({Value(i % 2), Value(i)});
  Batch out =
      Collect(MakeSort(SourceOf(s, rows), {SortKey{Expr::Column("k"), true}}));
  ASSERT_EQ(out.num_rows(), 6u);
  // Equal keys retain input order.
  EXPECT_EQ(out.rows[0][1].int64(), 0);
  EXPECT_EQ(out.rows[1][1].int64(), 2);
  EXPECT_EQ(out.rows[2][1].int64(), 4);
}

TEST(OperatorsTest, SortMultiKey) {
  Schema s({{"a", DataType::kString}, {"b", DataType::kInt64}});
  std::vector<Row> rows = {{Value("y"), Value(int64_t{1})},
                           {Value("x"), Value(int64_t{2})},
                           {Value("x"), Value(int64_t{9})}};
  Batch out = Collect(MakeSort(SourceOf(s, rows),
                               {SortKey{Expr::Column("a"), true},
                                SortKey{Expr::Column("b"), false}}));
  EXPECT_EQ(out.rows[0][0].str(), "x");
  EXPECT_EQ(out.rows[0][1].int64(), 9);
  EXPECT_EQ(out.rows[2][0].str(), "y");
}

OperatorPtr LeftTable() {
  Schema s({{"lk", DataType::kInt64}, {"lv", DataType::kString}});
  return SourceOf(s, {{Value(int64_t{1}), Value("a")},
                      {Value(int64_t{2}), Value("b")},
                      {Value(int64_t{2}), Value("b2")},
                      {Value(int64_t{4}), Value("d")},
                      {Value::Null(), Value("n")}});
}

OperatorPtr RightTable() {
  Schema s({{"rk", DataType::kInt64}, {"rv", DataType::kString}});
  return SourceOf(s, {{Value(int64_t{2}), Value("B")},
                      {Value(int64_t{2}), Value("B2")},
                      {Value(int64_t{3}), Value("C")},
                      {Value::Null(), Value("N")}});
}

TEST(OperatorsTest, HashJoinInnerSemantics) {
  Batch out = Collect(MakeHashJoin(LeftTable(), RightTable(),
                                   {Expr::Column("lk")}, {Expr::Column("rk")}));
  // key 2: 2 left x 2 right = 4 matches; NULL keys never join.
  EXPECT_EQ(out.num_rows(), 4u);
  EXPECT_EQ(out.schema.num_fields(), 4u);
  for (const Row& r : out.rows) {
    EXPECT_EQ(r[0].int64(), 2);
    EXPECT_EQ(r[2].int64(), 2);
  }
}

TEST(OperatorsTest, MergeJoinMatchesHashJoin) {
  auto sorted_left = MakeSort(LeftTable(), {SortKey{Expr::Column("lk"), true}});
  auto sorted_right =
      MakeSort(RightTable(), {SortKey{Expr::Column("rk"), true}});
  Batch out =
      Collect(MakeMergeJoin(std::move(sorted_left), std::move(sorted_right),
                            {Expr::Column("lk")}, {Expr::Column("rk")}));
  EXPECT_EQ(out.num_rows(), 4u);
  for (const Row& r : out.rows) EXPECT_EQ(r[0].int64(), r[2].int64());
}

TEST(OperatorsTest, MergeJoinRejectsUnsortedInput) {
  auto op = MakeMergeJoin(LeftTable(), RightTable(), {Expr::Column("lk")},
                          {Expr::Column("rk")});
  // LeftTable has NULL last, which sorts first -> not sorted. The check
  // runs when the (lazily built) join first drains its inputs.
  ASSERT_TRUE(op->Open().ok());
  auto r = op->Next();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(OperatorsTest, JoinKeyArityMismatchRejected) {
  auto op = MakeHashJoin(LeftTable(), RightTable(),
                         {Expr::Column("lk"), Expr::Column("lv")},
                         {Expr::Column("rk")});
  EXPECT_FALSE(op->Open().ok());
}

Schema SalesSchema() {
  return Schema({{"region", DataType::kString},
                 {"amount", DataType::kFloat64},
                 {"units", DataType::kInt64}});
}

std::vector<Row> SalesRows() {
  return {{Value("east"), Value(10.0), Value(int64_t{1})},
          {Value("west"), Value(20.0), Value(int64_t{2})},
          {Value("east"), Value(30.0), Value(int64_t{3})},
          {Value("west"), Value::Null(), Value(int64_t{4})}};
}

std::vector<AggSpec> SalesAggs() {
  return {AggSpec{AggKind::kSum, Expr::Column("amount"), "total"},
          AggSpec{AggKind::kCount, nullptr, "n"},
          AggSpec{AggKind::kMin, Expr::Column("amount"), "lo"},
          AggSpec{AggKind::kMax, Expr::Column("amount"), "hi"},
          AggSpec{AggKind::kAvg, Expr::Column("amount"), "mean"}};
}

TEST(OperatorsTest, HashAggregateGroups) {
  Batch out = Collect(MakeHashAggregate(SourceOf(SalesSchema(), SalesRows()),
                                        {Expr::Column("region")}, {"region"},
                                        SalesAggs()));
  ASSERT_EQ(out.num_rows(), 2u);
  // First-seen order: east then west.
  EXPECT_EQ(out.rows[0][0].str(), "east");
  EXPECT_DOUBLE_EQ(out.rows[0][1].AsDouble(), 40.0);
  EXPECT_EQ(out.rows[0][2].int64(), 2);  // COUNT(*)
  EXPECT_DOUBLE_EQ(out.rows[0][3].AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(out.rows[0][4].AsDouble(), 30.0);
  EXPECT_DOUBLE_EQ(out.rows[0][5].float64(), 20.0);
  // west: SUM skips the NULL; COUNT(*) still 2; AVG over one value.
  EXPECT_DOUBLE_EQ(out.rows[1][1].AsDouble(), 20.0);
  EXPECT_EQ(out.rows[1][2].int64(), 2);
  EXPECT_DOUBLE_EQ(out.rows[1][5].float64(), 20.0);
}

TEST(OperatorsTest, GlobalAggregateOnEmptyInput) {
  Batch out = Collect(MakeHashAggregate(
      SourceOf(SalesSchema(), {}), {}, {},
      {AggSpec{AggKind::kCount, nullptr, "n"},
       AggSpec{AggKind::kSum, Expr::Column("amount"), "total"}}));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.rows[0][0].int64(), 0);
  EXPECT_TRUE(out.rows[0][1].is_null());
}

TEST(OperatorsTest, CountColumnSkipsNulls) {
  Batch out = Collect(MakeHashAggregate(
      SourceOf(SalesSchema(), SalesRows()), {}, {},
      {AggSpec{AggKind::kCount, Expr::Column("amount"), "n_amount"},
       AggSpec{AggKind::kCount, nullptr, "n_star"}}));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.rows[0][0].int64(), 3);
  EXPECT_EQ(out.rows[0][1].int64(), 4);
}

TEST(OperatorsTest, SumOfIntsStaysInt) {
  Schema s({{"x", DataType::kInt64}});
  Batch out = Collect(MakeHashAggregate(
      SourceOf(s, {{Value(int64_t{2})}, {Value(int64_t{3})}}), {}, {},
      {AggSpec{AggKind::kSum, Expr::Column("x"), "sx"}}));
  ASSERT_EQ(out.num_rows(), 1u);
  ASSERT_TRUE(out.rows[0][0].is_int64());
  EXPECT_EQ(out.rows[0][0].int64(), 5);
}

// An int64 SUM adds in int64, in both aggregates and the row oracle:
// exact past 2^53, and past the int64 range it wraps modulo 2^64 as
// int64 `+` does.
TEST(OperatorsTest, SumOfIntsIsExactAndWraps) {
  constexpr int64_t k2p53 = int64_t{1} << 53;
  const Schema s({{"x", DataType::kInt64}});
  // In double, 2^53 + 1 + 1 rounds back to 2^53.
  const std::vector<Row> exact = {
      {Value(k2p53)}, {Value(int64_t{1})}, {Value(int64_t{1})}};
  // n + 9223372036854775000 for n = 0..24: the cells of
  // `sum(n_nationkey + 9223372036854775000)` over tpch_nation.
  std::vector<Row> wraps;
  for (int64_t n = 0; n < 25; ++n) {
    wraps.push_back({Value(n + 9223372036854775000)});
  }
  const std::vector<AggSpec> aggs = {
      AggSpec{AggKind::kSum, Expr::Column("x"), "sx"}};
  for (const auto& [rows, want] :
       {std::pair{exact, k2p53 + 2},
        std::pair{wraps, int64_t{9223372036854755908}}}) {
    for (const bool streamed : {false, true}) {
      OperatorPtr src = SourceOf(s, rows);
      Batch out = Collect(
          streamed ? MakeStreamedAggregate(std::move(src), {}, {}, aggs)
                   : MakeHashAggregate(std::move(src), {}, {}, aggs));
      ASSERT_EQ(out.num_rows(), 1u);
      ASSERT_TRUE(out.rows[0][0].is_int64());
      EXPECT_EQ(out.rows[0][0].int64(), want) << "streamed=" << streamed;
    }
    Batch in;
    in.schema = s;
    in.rows = rows;
    const std::vector<Row> ref_out = ref::Aggregate(in, {}, aggs);
    ASSERT_EQ(ref_out.size(), 1u);
    EXPECT_EQ(ref_out[0][0].int64(), want);
  }
}

// NaN is the largest float64 (expr_eval::CompareFloat64), so MIN/MAX do
// not depend on which cell comes first: MAX of {NaN, 1.0} is NaN and MIN
// is 1.0 in both orders, in both aggregates and the row oracle.
TEST(OperatorsTest, MinMaxWithNaNIgnoreInputOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Schema s({{"x", DataType::kFloat64}});
  const std::vector<AggSpec> aggs = {
      AggSpec{AggKind::kMin, Expr::Column("x"), "lo"},
      AggSpec{AggKind::kMax, Expr::Column("x"), "hi"}};
  const std::vector<std::vector<Row>> orders = {{{Value(nan)}, {Value(1.0)}},
                                                {{Value(1.0)}, {Value(nan)}}};
  for (const std::vector<Row>& rows : orders) {
    const std::string ctx = "first cell " + rows[0][0].ToString();
    for (const bool streamed : {false, true}) {
      OperatorPtr src = SourceOf(s, rows);
      Batch out = Collect(
          streamed ? MakeStreamedAggregate(std::move(src), {}, {}, aggs)
                   : MakeHashAggregate(std::move(src), {}, {}, aggs));
      ASSERT_EQ(out.num_rows(), 1u) << ctx;
      EXPECT_EQ(out.rows[0][0].float64(), 1.0)
          << ctx << " streamed=" << streamed;
      EXPECT_TRUE(std::isnan(out.rows[0][1].float64()))
          << ctx << " streamed=" << streamed;
    }
    Batch in;
    in.schema = s;
    in.rows = rows;
    const std::vector<Row> ref_out = ref::Aggregate(in, {}, aggs);
    ASSERT_EQ(ref_out.size(), 1u);
    EXPECT_EQ(ref_out[0][0].float64(), 1.0) << ctx;
    EXPECT_TRUE(std::isnan(ref_out[0][1].float64())) << ctx;
  }
}

// A group key or a MIN/MAX over a class of equal floats reports the
// class's canonical member, whichever row comes first: +0.0 for zeros,
// the quiet NaN kCanonicalNaNBits for NaNs.
TEST(OperatorsTest, EqualFloatsReportTheirCanonicalMember) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double payload_nan = std::bit_cast<double>(0x7ff8000000000001ULL);
  const Schema s({{"x", DataType::kFloat64}});
  const std::vector<AggSpec> aggs = {
      AggSpec{AggKind::kMin, Expr::Column("x"), "lo"},
      AggSpec{AggKind::kMax, Expr::Column("x"), "hi"},
      AggSpec{AggKind::kCount, nullptr, "n"}};
  const std::vector<std::vector<double>> orders = {
      {-0.0, 0.0, -0.0}, {0.0, -0.0}, {-nan, nan}, {payload_nan, -nan}};
  for (const std::vector<double>& xs : orders) {
    std::vector<Row> rows;
    for (double x : xs) rows.push_back({Value(x)});
    const uint64_t want = xs[0] == 0.0 ? 0 : expr_eval::kCanonicalNaNBits;
    const std::string ctx = "first cell bits " +
                            std::to_string(std::bit_cast<uint64_t>(xs[0]));
    const auto check = [&](const std::vector<Row>& got,
                           const std::string& who) {
      ASSERT_EQ(got.size(), 1u) << ctx << " " << who;
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got[0][c].float64()), want)
            << ctx << " " << who << " column " << c;
      }
      EXPECT_EQ(got[0][3].int64(), static_cast<int64_t>(xs.size()))
          << ctx << " " << who;
    };
    for (const bool streamed : {false, true}) {
      OperatorPtr src = SourceOf(s, rows);
      const std::vector<ExprPtr> groups = {Expr::Column("x")};
      Batch out = Collect(
          streamed ? MakeStreamedAggregate(std::move(src), groups, {"x"}, aggs)
                   : MakeHashAggregate(std::move(src), groups, {"x"}, aggs));
      check(out.rows, streamed ? "streamed" : "hash");
    }
    Batch in;
    in.schema = s;
    in.rows = rows;
    check(ref::Aggregate(in, {Expr::Column("x")}, aggs), "reference");
  }
}

TEST(OperatorsTest, StreamedAggregateMatchesHashOnSortedInput) {
  auto sorted = MakeSort(SourceOf(SalesSchema(), SalesRows()),
                         {SortKey{Expr::Column("region"), true}});
  Batch streamed = Collect(MakeStreamedAggregate(
      std::move(sorted), {Expr::Column("region")}, {"region"}, SalesAggs()));
  ASSERT_EQ(streamed.num_rows(), 2u);
  EXPECT_EQ(streamed.rows[0][0].str(), "east");
  EXPECT_DOUBLE_EQ(streamed.rows[0][1].AsDouble(), 40.0);
  EXPECT_EQ(streamed.rows[1][0].str(), "west");
  EXPECT_DOUBLE_EQ(streamed.rows[1][1].AsDouble(), 20.0);
}

TEST(OperatorsTest, StreamedAggregateRejectsUnsortedInput) {
  std::vector<Row> rows = {{Value("b"), Value(1.0), Value(int64_t{1})},
                           {Value("a"), Value(1.0), Value(int64_t{1})}};
  auto op = MakeStreamedAggregate(SourceOf(SalesSchema(), rows),
                                  {Expr::Column("region")}, {"region"},
                                  {AggSpec{AggKind::kCount, nullptr, "n"}});
  // Like MergeJoin, the check runs when the aggregate first drains.
  ASSERT_TRUE(op->Open().ok());
  auto r = op->Next();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("not sorted"), std::string::npos);
}

TEST(OperatorsTest, WindowRowNumberAndRank) {
  Schema s({{"g", DataType::kString}, {"x", DataType::kInt64}});
  std::vector<Row> rows = {{Value("a"), Value(int64_t{10})},
                           {Value("a"), Value(int64_t{10})},
                           {Value("a"), Value(int64_t{20})},
                           {Value("b"), Value(int64_t{5})}};
  Batch rn = Collect(MakeWindow(SourceOf(s, rows), {Expr::Column("g")},
                                {SortKey{Expr::Column("x"), true}},
                                WindowFunc::kRowNumber, nullptr, "rn"));
  ASSERT_EQ(rn.num_rows(), 4u);
  EXPECT_EQ(rn.rows[0][2].int64(), 1);
  EXPECT_EQ(rn.rows[1][2].int64(), 2);
  EXPECT_EQ(rn.rows[2][2].int64(), 3);
  EXPECT_EQ(rn.rows[3][2].int64(), 1);  // new partition

  Batch rk = Collect(MakeWindow(SourceOf(s, rows), {Expr::Column("g")},
                                {SortKey{Expr::Column("x"), true}},
                                WindowFunc::kRank, nullptr, "rk"));
  EXPECT_EQ(rk.rows[0][2].int64(), 1);
  EXPECT_EQ(rk.rows[1][2].int64(), 1);  // tie keeps rank
  EXPECT_EQ(rk.rows[2][2].int64(), 3);
}

TEST(OperatorsTest, WindowRunningSum) {
  Schema s({{"g", DataType::kString}, {"x", DataType::kInt64}});
  std::vector<Row> rows = {{Value("a"), Value(int64_t{1})},
                           {Value("a"), Value(int64_t{2})},
                           {Value("a"), Value(int64_t{3})}};
  Batch out = Collect(MakeWindow(SourceOf(s, rows), {Expr::Column("g")},
                                 {SortKey{Expr::Column("x"), true}},
                                 WindowFunc::kSum, Expr::Column("x"), "cum"));
  // An int64 argument sums as int64, as a group SUM does.
  EXPECT_EQ(out.rows[0][2].int64(), 1);
  EXPECT_EQ(out.rows[1][2].int64(), 3);
  EXPECT_EQ(out.rows[2][2].int64(), 6);
}

TEST(OperatorsTest, HashPartitionIsDeterministicAndComplete) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({Value(i), Value("v")});
  Batch b;
  b.schema = KV();
  b.rows = rows;
  auto parts = Partition(b, {Expr::Column("k")}, 7);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 7u);
  std::size_t total = 0;
  for (const ColumnBatch& p : *parts) total += p.num_rows();
  EXPECT_EQ(total, 100u);
  // Same key -> same partition on a second run.
  auto parts2 = Partition(b, {Expr::Column("k")}, 7);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ((*parts)[i].num_rows(), (*parts2)[i].num_rows());
  }
}

TEST(OperatorsTest, HashPartitionNullKeyGoesToZero) {
  Batch b;
  b.schema = KV();
  b.rows = {{Value::Null(), Value("n")}};
  auto parts = Partition(b, {Expr::Column("k")}, 4);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ((*parts)[0].num_rows(), 1u);
}

TEST(OperatorsTest, HashPartitionRejectsBadCount) {
  Batch b;
  b.schema = KV();
  EXPECT_FALSE(Partition(b, {Expr::Column("k")}, 0).ok());
}

TEST(OperatorsTest, PipelinedChainFilterProjectSortLimit) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 2000; ++i) {  // spans multiple internal batches
    rows.push_back({Value(i), Value("v" + std::to_string(i))});
  }
  auto pred = Expr::Binary(BinaryOp::kGe, Expr::Column("k"),
                           Expr::Literal(Value(int64_t{1000})));
  auto chain = MakeLimit(
      MakeSort(MakeProject(MakeFilter(SourceOf(KV(), rows), pred),
                           {Expr::Column("k")}, {"k"}),
               {SortKey{Expr::Column("k"), false}}),
      5);
  Batch out = Collect(std::move(chain));
  ASSERT_EQ(out.num_rows(), 5u);
  EXPECT_EQ(out.rows[0][0].int64(), 1999);
  EXPECT_EQ(out.rows[4][0].int64(), 1995);
}

}  // namespace
}  // namespace swift
