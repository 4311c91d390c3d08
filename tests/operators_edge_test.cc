// Edge-case tests for the physical operators: empty inputs, batch
// boundaries, duplicate-key cross products, and degenerate shapes.

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "partition_gather.h"

namespace swift {
namespace {

Schema K() { return Schema({{"k", DataType::kInt64}}); }

OperatorPtr SourceRows(Schema schema, std::vector<Row> rows) {
  Batch b;
  b.schema = schema;
  b.rows = std::move(rows);
  std::vector<Batch> batches;
  batches.push_back(std::move(b));
  return MakeBatchSource(std::move(schema), std::move(batches));
}

OperatorPtr Empty(Schema schema) { return SourceRows(schema, {}); }

Batch Collect(OperatorPtr op) {
  auto r = CollectAll(op.get());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *std::move(r) : Batch{};
}

std::vector<Row> Ints(std::initializer_list<int64_t> xs) {
  std::vector<Row> rows;
  for (int64_t x : xs) rows.push_back({Value(x)});
  return rows;
}

TEST(OperatorEdgeTest, EmptyThroughEveryUnaryOperator) {
  EXPECT_EQ(Collect(MakeFilter(Empty(K()), Expr::Literal(Value(int64_t{1}))))
                .num_rows(),
            0u);
  EXPECT_EQ(Collect(MakeProject(Empty(K()), {Expr::Column("k")}, {"k"}))
                .num_rows(),
            0u);
  EXPECT_EQ(Collect(MakeSort(Empty(K()), {SortKey{Expr::Column("k"), true}}))
                .num_rows(),
            0u);
  EXPECT_EQ(Collect(MakeLimit(Empty(K()), 5)).num_rows(), 0u);
  EXPECT_EQ(Collect(MakeWindow(Empty(K()), {}, {}, WindowFunc::kRowNumber,
                               nullptr, "rn"))
                .num_rows(),
            0u);
  // Grouped aggregate over empty input: zero groups.
  EXPECT_EQ(Collect(MakeHashAggregate(
                        Empty(K()), {Expr::Column("k")}, {"k"},
                        {AggSpec{AggKind::kCount, nullptr, "n"}}))
                .num_rows(),
            0u);
  EXPECT_EQ(Collect(MakeStreamedAggregate(
                        Empty(K()), {Expr::Column("k")}, {"k"},
                        {AggSpec{AggKind::kCount, nullptr, "n"}}))
                .num_rows(),
            0u);
}

TEST(OperatorEdgeTest, JoinsWithOneOrBothSidesEmpty) {
  Schema l({{"lk", DataType::kInt64}});
  Schema r({{"rk", DataType::kInt64}});
  auto keysL = std::vector<ExprPtr>{Expr::Column("lk")};
  auto keysR = std::vector<ExprPtr>{Expr::Column("rk")};
  EXPECT_EQ(Collect(MakeHashJoin(Empty(l), Empty(r), keysL, keysR)).num_rows(),
            0u);
  EXPECT_EQ(Collect(MakeHashJoin(SourceRows(l, Ints({1, 2})), Empty(r), keysL,
                                 keysR))
                .num_rows(),
            0u);
  // Left-outer with an empty right pads everything.
  Batch padded = Collect(MakeHashJoin(SourceRows(l, Ints({1, 2})), Empty(r),
                                      keysL, keysR, JoinType::kLeftOuter));
  ASSERT_EQ(padded.num_rows(), 2u);
  EXPECT_TRUE(padded.rows[0][1].is_null());
  // Merge join: same.
  EXPECT_EQ(Collect(MakeMergeJoin(Empty(l), SourceRows(r, Ints({3})), keysL,
                                  keysR))
                .num_rows(),
            0u);
  Batch mpad = Collect(MakeMergeJoin(SourceRows(l, Ints({1, 2})), Empty(r),
                                     keysL, keysR, JoinType::kLeftOuter));
  EXPECT_EQ(mpad.num_rows(), 2u);
}

TEST(OperatorEdgeTest, DuplicateKeyCrossProductCounts) {
  Schema l({{"lk", DataType::kInt64}});
  Schema r({{"rk", DataType::kInt64}});
  auto left = Ints({7, 7, 7});
  auto right = Ints({7, 7});
  Batch hash = Collect(MakeHashJoin(SourceRows(l, left), SourceRows(r, right),
                                    {Expr::Column("lk")},
                                    {Expr::Column("rk")}));
  EXPECT_EQ(hash.num_rows(), 6u);  // 3 x 2
  Batch merge = Collect(MakeMergeJoin(SourceRows(l, left),
                                      SourceRows(r, right),
                                      {Expr::Column("lk")},
                                      {Expr::Column("rk")}));
  EXPECT_EQ(merge.num_rows(), 6u);
}

TEST(OperatorEdgeTest, BatchBoundaryAt1024) {
  // The materializing operators chunk output at 1024 rows; make sure
  // nothing is lost or duplicated right at the boundary.
  for (int n : {1023, 1024, 1025, 2048, 3000}) {
    std::vector<Row> rows;
    for (int i = n - 1; i >= 0; --i) {
      rows.push_back({Value(static_cast<int64_t>(i))});
    }
    Batch out = Collect(
        MakeSort(SourceRows(K(), std::move(rows)),
                 {SortKey{Expr::Column("k"), true}}));
    ASSERT_EQ(out.num_rows(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(out.rows[static_cast<std::size_t>(i)][0].int64(), i);
    }
  }
}

TEST(OperatorEdgeTest, LimitAcrossBatchBoundaries) {
  std::vector<Batch> batches;
  for (int b = 0; b < 3; ++b) {
    Batch batch;
    batch.schema = K();
    for (int i = 0; i < 10; ++i) {
      batch.rows.push_back({Value(static_cast<int64_t>(b * 10 + i))});
    }
    batches.push_back(std::move(batch));
  }
  auto op = MakeLimit(MakeBatchSource(K(), std::move(batches)), 15);
  Batch out = Collect(std::move(op));
  ASSERT_EQ(out.num_rows(), 15u);
  EXPECT_EQ(out.rows[14][0].int64(), 14);
}

TEST(OperatorEdgeTest, SortAllEqualKeysKeepsAllRows) {
  Schema s({{"k", DataType::kInt64}, {"seq", DataType::kInt64}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({Value(int64_t{5}), Value(i)});
  Batch out = Collect(MakeSort(SourceRows(s, std::move(rows)),
                               {SortKey{Expr::Column("k"), true}}));
  ASSERT_EQ(out.num_rows(), 100u);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out.rows[static_cast<std::size_t>(i)][1].int64(), i);  // stable
  }
}

TEST(OperatorEdgeTest, WindowSinglePartitionSingleRow) {
  Batch out = Collect(MakeWindow(SourceRows(K(), Ints({42})), {},
                                 {SortKey{Expr::Column("k"), true}},
                                 WindowFunc::kRank, nullptr, "rk"));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.rows[0][1].int64(), 1);
}

TEST(OperatorEdgeTest, HashPartitionSinglePartitionIsIdentity) {
  Batch b;
  b.schema = K();
  b.rows = Ints({1, 2, 3});
  auto cb = ToColumnBatch(b);
  ASSERT_TRUE(cb.ok());
  auto parts = GatherPartitions(*cb, {Expr::Column("k")}, 1);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 1u);
  EXPECT_EQ((*parts)[0].num_rows(), 3u);
}

TEST(OperatorEdgeTest, AggregatesOverAllNullColumn) {
  Schema s({{"g", DataType::kInt64}, {"v", DataType::kInt64}});
  std::vector<Row> rows = {{Value(int64_t{1}), Value::Null()},
                           {Value(int64_t{1}), Value::Null()}};
  Batch out = Collect(MakeHashAggregate(
      SourceRows(s, std::move(rows)), {Expr::Column("g")}, {"g"},
      {AggSpec{AggKind::kSum, Expr::Column("v"), "s"},
       AggSpec{AggKind::kMin, Expr::Column("v"), "lo"},
       AggSpec{AggKind::kAvg, Expr::Column("v"), "a"},
       AggSpec{AggKind::kCount, Expr::Column("v"), "n"}}));
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_TRUE(out.rows[0][1].is_null());  // SUM of nothing
  EXPECT_TRUE(out.rows[0][2].is_null());  // MIN of nothing
  EXPECT_TRUE(out.rows[0][3].is_null());  // AVG of nothing
  EXPECT_EQ(out.rows[0][4].int64(), 0);   // COUNT skips NULLs
}

TEST(OperatorEdgeTest, GroupKeyMayBeNull) {
  // NULL is a legal grouping value and forms its own group.
  Schema s({{"g", DataType::kInt64}});
  std::vector<Row> rows = {{Value::Null()}, {Value::Null()},
                           {Value(int64_t{1})}};
  Batch out = Collect(MakeHashAggregate(
      SourceRows(s, std::move(rows)), {Expr::Column("g")}, {"g"},
      {AggSpec{AggKind::kCount, nullptr, "n"}}));
  ASSERT_EQ(out.num_rows(), 2u);
}

}  // namespace
}  // namespace swift
