// Morsel-driven streaming suite (ctest label morsel_smoke).
//
// Pins the guarantees of DESIGN.md Sec. 14:
//  1. Morselized sources split task input into <= morsel_rows batches
//     with no row lost, duplicated, or reordered — including empty,
//     1-row, and ragged-tail inputs, and selection vectors that
//     straddle morsel boundaries.
//  2. Operators stay correct across morsel boundaries: LimitOp counts
//     logical rows, filters compose selections per morsel.
//  3. The parallel morsel pipeline is byte-identical to serial
//     execution in ordered mode (randomized parity, real thread pool),
//     row-multiset-identical in unordered mode, and surfaces source and
//     step errors exactly where serial execution would.
//  4. Sort / Window / MergeJoin agree with the naive reference executor
//     in reference_ops.h (NULLs, strings, duplicates, descending keys,
//     left-outer padding) and SortOp emits a permutation selection
//     instead of gathering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/column_batch.h"
#include "exec/morsel.h"
#include "exec/operators.h"
#include "exec/table.h"
#include "reference_ops.h"

namespace swift {
namespace {

// Bit-exact Value equality (NaN == NaN, -0.0 != +0.0): morselizing a
// stream must preserve cells exactly, not just Compare-equal.
bool ValueBitEq(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kInt64:
      return a.int64() == b.int64();
    case DataType::kFloat64: {
      uint64_t ba = 0, bb = 0;
      const double da = a.float64(), db = b.float64();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case DataType::kString:
      return a.str() == b.str();
  }
  return false;
}

void ExpectRowsBitEq(const std::vector<Row>& got,
                     const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "row " << r;
    for (std::size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_TRUE(ValueBitEq(got[r][c], want[r][c]))
          << "row " << r << " col " << c;
    }
  }
}

// Drains an operator into rows, recording the
// logical size of every emitted morsel.
Result<std::vector<Row>> DrainColumnarRows(PhysicalOperator* op,
                                           std::vector<std::size_t>* sizes) {
  std::vector<Row> rows;
  for (;;) {
    SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> cb, op->Next());
    if (!cb.has_value()) break;
    if (sizes != nullptr) sizes->push_back(cb->num_rows());
    Batch b = ToRowBatch(*cb);
    for (Row& r : b.rows) rows.push_back(std::move(r));
  }
  return rows;
}

std::shared_ptr<Table> CountingTable(int nrows) {
  std::vector<Row> rows;
  for (int r = 0; r < nrows; ++r) {
    rows.push_back({Value(int64_t{r}), Value(r * 0.5),
                    Value("s" + std::to_string(r % 7))});
  }
  return MakeTable("t",
                   Schema({{"k", DataType::kInt64},
                           {"v", DataType::kFloat64},
                           {"s", DataType::kString}}),
                   std::move(rows))
      .ValueOrDie();
}

Batch RandomBatch(uint64_t seed, int nrows) {
  Rng rng(seed);
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64},
                     {"v", DataType::kFloat64},
                     {"s", DataType::kString}});
  for (int r = 0; r < nrows; ++r) {
    Row row;
    row.push_back(rng.UniformInt(0, 9) == 0 ? Value::Null()
                                            : Value(rng.UniformInt(-50, 50)));
    row.push_back(rng.UniformInt(0, 9) == 0 ? Value::Null()
                                            : Value(rng.Uniform(-1.0, 1.0)));
    row.push_back(rng.UniformInt(0, 9) == 0
                      ? Value::Null()
                      : Value("s" + std::to_string(rng.UniformInt(0, 12))));
    b.rows.push_back(std::move(row));
  }
  return b;
}

// ---- Morselized sources ---------------------------------------------

TEST(TableMorselSourceTest, SplitsSliceIntoBoundedMorsels) {
  auto table = CountingTable(10);
  for (int task = 0; task < 2; ++task) {
    auto src = MakeTableMorselSource(table, task, 2, table->schema, 4);
    ASSERT_TRUE(src->Open().ok());
    std::vector<std::size_t> sizes;
    auto rows = DrainColumnarRows(src.get(), &sizes);
    ASSERT_TRUE(rows.ok());
    // 5 rows per task at morsel_rows = 4 -> morsels of 4 then 1.
    EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 1}));
    const auto [begin, end] = table->TaskSliceBounds(task, 2);
    const Batch want =
        ToRowBatch(table->data().SliceRows(begin, end - begin));
    ExpectRowsBitEq(*rows, want.rows);
  }
}

TEST(TableMorselSourceTest, EmptySingleRowAndOversubscribedTasks) {
  {
    auto empty = CountingTable(0);
    auto src = MakeTableMorselSource(empty, 0, 1, empty->schema, 4);
    ASSERT_TRUE(src->Open().ok());
    auto rows = DrainColumnarRows(src.get(), nullptr);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
  }
  {
    auto one = CountingTable(1);
    auto src = MakeTableMorselSource(one, 0, 1, one->schema, 1024);
    ASSERT_TRUE(src->Open().ok());
    std::vector<std::size_t> sizes;
    auto rows = DrainColumnarRows(src.get(), &sizes);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(sizes, (std::vector<std::size_t>{1}));
    ExpectRowsBitEq(*rows, ref::Rows(*one));
  }
  {
    // More tasks than rows: the surplus tasks see empty slices.
    auto small = CountingTable(3);
    std::vector<Row> all;
    for (int task = 0; task < 8; ++task) {
      auto src = MakeTableMorselSource(small, task, 8, small->schema, 2);
      ASSERT_TRUE(src->Open().ok());
      auto rows = DrainColumnarRows(src.get(), nullptr);
      ASSERT_TRUE(rows.ok());
      for (Row& r : *rows) all.push_back(std::move(r));
    }
    ExpectRowsBitEq(all, ref::Rows(*small));
  }
}

TEST(MorselSourceTest, RaggedTailsAndWholeBatchMoves) {
  // Input batches of 0, 1, 5, 4 and 9 rows at morsel_rows = 4: empty
  // batches vanish, fitting batches pass through whole, oversized ones
  // split with ragged tails — and concatenation order is untouched.
  Batch all = RandomBatch(0xA11, 19);
  std::vector<ColumnBatch> batches;
  std::size_t off = 0;
  for (std::size_t n : {0u, 1u, 5u, 4u, 9u}) {
    Batch part;
    part.schema = all.schema;
    for (std::size_t i = 0; i < n; ++i) part.rows.push_back(all.rows[off + i]);
    off += n;
    auto cb = ToColumnBatch(part);
    ASSERT_TRUE(cb.ok());
    batches.push_back(*std::move(cb));
  }
  auto src = MakeMorselSource(all.schema, std::move(batches), 4);
  ASSERT_TRUE(src->Open().ok());
  std::vector<std::size_t> sizes;
  auto rows = DrainColumnarRows(src.get(), &sizes);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 4, 1, 4, 4, 4, 1}));
  ExpectRowsBitEq(*rows, all.rows);
}

TEST(MorselSourceTest, SliceRowsGathersSelectionStraddlingMorsels) {
  // A selection picking every other physical row, sliced at a morsel
  // boundary that lands mid-selection: each slice must gather exactly
  // its logical subrange and come out dense.
  Batch b = RandomBatch(0x5E1, 12);
  auto cb = ToColumnBatch(b);
  ASSERT_TRUE(cb.ok());
  cb->selection = std::vector<uint32_t>{1, 3, 5, 7, 9, 11};
  const Batch logical = ToRowBatch(*cb);
  for (std::size_t begin : {0u, 2u, 4u, 5u}) {
    const ColumnBatch m = cb->SliceRows(begin, 4);
    EXPECT_FALSE(m.selection.has_value());
    const std::size_t want =
        std::min<std::size_t>(4, logical.rows.size() - begin);
    ASSERT_EQ(m.num_rows(), want);
    std::vector<Row> expect(logical.rows.begin() + begin,
                            logical.rows.begin() + begin + want);
    ExpectRowsBitEq(ToRowBatch(m).rows, expect);
  }
}

// ---- Operators across morsel boundaries -----------------------------

TEST(MorselBoundaryTest, LimitCountsLogicalRowsAcrossMorsels) {
  // k = 0..19 filtered to k >= 3 through 4-row morsels, LIMIT 7: the
  // first morsel reaches the limit with a selection vector (3 logical
  // rows over 4 physical), so the limit must count logical rows and
  // stop mid-stream after k = 9.
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64}});
  for (int64_t r = 0; r < 20; ++r) b.rows.push_back({Value(r)});
  auto cb = ToColumnBatch(b);
  ASSERT_TRUE(cb.ok());
  std::vector<ColumnBatch> batches;
  batches.push_back(*std::move(cb));
  auto pred = Expr::Binary(BinaryOp::kGe, Expr::Column("k"),
                           Expr::Literal(Value(int64_t{3})));
  auto op = MakeLimit(
      MakeFilter(MakeMorselSource(b.schema, std::move(batches), 4), pred), 7);
  ASSERT_TRUE(op->Open().ok());
  auto rows = DrainColumnarRows(op.get(), nullptr);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 7u);
  for (std::size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i][0].int64(), static_cast<int64_t>(3 + i));
  }
}

// ---- Parallel morsel pipeline ---------------------------------------

std::vector<MorselStep> FilterProjectSteps() {
  std::vector<MorselStep> steps;
  MorselStep f;
  f.kind = MorselStep::Kind::kFilter;
  f.predicate = Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                             Expr::Literal(Value(int64_t{-20})));
  steps.push_back(std::move(f));
  MorselStep p;
  p.kind = MorselStep::Kind::kProject;
  p.exprs = {Expr::Binary(BinaryOp::kAdd, Expr::Column("k"),
                          Expr::Literal(Value(int64_t{7}))),
             Expr::Binary(BinaryOp::kMul, Expr::Column("v"), Expr::Column("v")),
             Expr::Column("s")};
  p.names = {"k7", "v2", "s"};
  steps.push_back(std::move(p));
  return steps;
}

// Reference answer of FilterProjectSteps over `b`.
std::vector<Row> RowOracle(const Batch& b) {
  std::vector<MorselStep> steps = FilterProjectSteps();
  Batch filtered;
  filtered.schema = b.schema;
  filtered.rows = ref::Filter(b, steps[0].predicate);
  return ref::Project(filtered, steps[1].exprs);
}

OperatorPtr MorselizedInput(const Batch& b, std::size_t morsel_rows) {
  auto cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok());
  std::vector<ColumnBatch> batches;
  batches.push_back(*std::move(cb));
  return MakeMorselSource(b.schema, std::move(batches), morsel_rows);
}

TEST(ParallelMorselPipelineTest, OrderedParityAcrossSeedsAndLanes) {
  ThreadPool pool(4);
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const Batch b = RandomBatch(seed, 777);
    const std::vector<Row> want = RowOracle(b);
    for (int lanes : {1, 4}) {
      auto op = MakeParallelMorselPipeline(
          MorselizedInput(b, 13), FilterProjectSteps(),
          lanes > 1 ? &pool : nullptr, lanes);
      ASSERT_TRUE(op->Open().ok());
      auto rows = DrainColumnarRows(op.get(), nullptr);
      ASSERT_TRUE(rows.ok());
      ExpectRowsBitEq(*rows, want);
    }
  }
}

TEST(ParallelMorselPipelineTest, FullyFilteredMorselsAreSkipped) {
  ThreadPool pool(4);
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64}});
  for (int64_t r = 0; r < 64; ++r) b.rows.push_back({Value(r)});
  std::vector<MorselStep> steps;
  MorselStep f;
  f.kind = MorselStep::Kind::kFilter;
  // Only k in [24, 32) survives: most morsels filter to empty and the
  // sink must swallow them, like FilterOp never emitting empty batches.
  f.predicate = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGe, Expr::Column("k"),
                   Expr::Literal(Value(int64_t{24}))),
      Expr::Binary(BinaryOp::kLt, Expr::Column("k"),
                   Expr::Literal(Value(int64_t{32}))));
  steps.push_back(std::move(f));
  auto op = MakeParallelMorselPipeline(MorselizedInput(b, 8), std::move(steps),
                                       &pool, 4);
  ASSERT_TRUE(op->Open().ok());
  std::vector<std::size_t> sizes;
  auto rows = DrainColumnarRows(op.get(), &sizes);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{8}));
  ASSERT_EQ(rows->size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*rows)[i][0].int64(), static_cast<int64_t>(24 + i));
  }
}

// A columnar source that emits `good` morsels and then fails, for
// pinning where the pipeline surfaces source errors.
class FailingSource final : public PhysicalOperator {
 public:
  FailingSource(Schema schema, int good) : good_(good) {
    output_schema_ = std::move(schema);
  }
  Status Open() override { return Status::OK(); }
  Result<std::optional<ColumnBatch>> Next() override {
    if (emitted_ >= good_) return Status::Internal("source failed mid-stream");
    ColumnBatch cb;
    cb.schema = output_schema_;
    cb.physical_rows = 2;
    ColumnVector col = ColumnVector::OfType(DataType::kInt64);
    col.AppendInt64(emitted_ * 2);
    col.AppendInt64(emitted_ * 2 + 1);
    cb.columns.push_back(std::move(col));
    ++emitted_;
    return std::optional<ColumnBatch>(std::move(cb));
  }

 private:
  int good_;
  int64_t emitted_ = 0;
};

TEST(ParallelMorselPipelineTest, SourceErrorSurfacesAfterPriorMorsels) {
  ThreadPool pool(4);
  Schema schema({{"k", DataType::kInt64}});
  std::vector<MorselStep> steps;
  MorselStep f;
  f.kind = MorselStep::Kind::kFilter;
  f.predicate = Expr::Binary(BinaryOp::kGe, Expr::Column("k"),
                             Expr::Literal(Value(int64_t{0})));
  steps.push_back(std::move(f));
  for (int lanes : {1, 4}) {
    auto op = MakeParallelMorselPipeline(
        std::make_unique<FailingSource>(schema, 3), steps,
        lanes > 1 ? &pool : nullptr, lanes);
    ASSERT_TRUE(op->Open().ok());
    // Ordered mode must deliver all three good morsels (6 rows), then
    // the error — exactly what serial execution produces.
    std::vector<Row> rows;
    Status err = Status::OK();
    for (;;) {
      auto cb = op->Next();
      if (!cb.ok()) {
        err = cb.status();
        break;
      }
      ASSERT_TRUE(cb->has_value()) << "stream ended without the error";
      Batch b = ToRowBatch(**cb);
      for (Row& r : b.rows) rows.push_back(std::move(r));
    }
    EXPECT_FALSE(err.ok());
    EXPECT_NE(err.message().find("source failed mid-stream"),
              std::string::npos);
    ASSERT_EQ(rows.size(), 6u) << "lanes=" << lanes;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i][0].int64(), static_cast<int64_t>(i));
    }
  }
}

TEST(ParallelMorselPipelineTest, DestructionMidStreamDoesNotHang) {
  ThreadPool pool(4);
  const Batch b = RandomBatch(0xBEEF, 4096);
  auto op = MakeParallelMorselPipeline(MorselizedInput(b, 16),
                                       FilterProjectSteps(), &pool, 4);
  ASSERT_TRUE(op->Open().ok());
  auto first = op->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  op.reset();  // helpers still queued/running must exit via the stop flag
}

// ---- Sort / Window / MergeJoin against the reference ----------------

OperatorPtr ColSrcOf(const Batch& b) {
  auto cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok());
  std::vector<ColumnBatch> v;
  v.push_back(*std::move(cb));
  return MakeColumnBatchSource(b.schema, std::move(v));
}

TEST(ColumnarMaterializedOpsTest, SortParityAndSelectionOutput) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    const Batch b = RandomBatch(seed, 500);
    std::vector<SortKey> keys;
    keys.push_back({Expr::Column("s"), true});
    keys.push_back({Expr::Column("k"), false});  // descending, with NULLs
    auto col_op = MakeSort(ColSrcOf(b), keys);
    ASSERT_TRUE(col_op->Open().ok());
    auto cb = col_op->Next();
    ASSERT_TRUE(cb.ok());
    ASSERT_TRUE(cb->has_value());
    // The sort emits a permutation selection over the input storage —
    // zero gather until a consumer needs density.
    EXPECT_TRUE((*cb)->selection.has_value());
    ExpectRowsBitEq(ToRowBatch(**cb).rows, ref::Sort(b, keys));
    auto end = col_op->Next();
    ASSERT_TRUE(end.ok());
    EXPECT_FALSE(end->has_value());
  }
}

TEST(ColumnarMaterializedOpsTest, WindowParityAllFuncs) {
  for (auto func :
       {WindowFunc::kRowNumber, WindowFunc::kRank, WindowFunc::kSum}) {
    const Batch b = RandomBatch(44, 400);
    std::vector<ExprPtr> part = {Expr::Column("s")};
    std::vector<SortKey> order;
    order.push_back({Expr::Column("k"), true});
    ExprPtr arg = func == WindowFunc::kSum ? Expr::Column("v") : nullptr;
    auto col_op = MakeWindow(ColSrcOf(b), part, order, func, arg, "w");
    auto got = CollectAllColumnar(col_op.get());
    ASSERT_TRUE(got.ok());
    ExpectRowsBitEq(ToRowBatch(*got).rows,
                    ref::Window(b, part, order, func, arg));
  }
}

Batch SortedKeyBatch(uint64_t seed, int nrows, const char* val_prefix) {
  Rng rng(seed);
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64}, {"p", DataType::kString}});
  int64_t k = 0;
  for (int r = 0; r < nrows; ++r) {
    k += rng.UniformInt(0, 2);  // duplicates and gaps
    b.rows.push_back(
        {Value(k), Value(val_prefix + std::to_string(rng.UniformInt(0, 99)))});
  }
  return b;
}

TEST(ColumnarMaterializedOpsTest, MergeJoinParityInnerAndLeftOuter) {
  const Batch left = SortedKeyBatch(7, 300, "L");
  const Batch right = SortedKeyBatch(9, 250, "R");
  std::vector<ExprPtr> lk = {Expr::Column("k")};
  std::vector<ExprPtr> rk = {Expr::Column("k")};
  for (auto jt : {JoinType::kInner, JoinType::kLeftOuter}) {
    auto col_op = MakeMergeJoin(ColSrcOf(left), ColSrcOf(right), lk, rk, jt);
    auto got = CollectAllColumnar(col_op.get());
    ASSERT_TRUE(got.ok());
    ExpectRowsBitEq(ToRowBatch(*got).rows,
                    ref::Join(left, right, lk, rk, jt));
  }
}

TEST(ColumnarMaterializedOpsTest, MergeJoinRejectsUnsortedColumnarInput) {
  Batch unsorted;
  unsorted.schema = Schema({{"k", DataType::kInt64}});
  unsorted.rows = {{Value(int64_t{5})}, {Value(int64_t{1})}};
  Batch sorted;
  sorted.schema = Schema({{"k", DataType::kInt64}});
  sorted.rows = {{Value(int64_t{1})}, {Value(int64_t{2})}};
  std::vector<ExprPtr> lk = {Expr::Column("k")};
  std::vector<ExprPtr> rk = {Expr::Column("k")};
  auto op = MakeMergeJoin(ColSrcOf(unsorted), ColSrcOf(sorted), lk, rk);
  ASSERT_TRUE(op->Open().ok());
  auto r = op->Next();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace swift
