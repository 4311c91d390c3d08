// Bench regression guard (ctest label morsel_smoke): morselizing a
// pipeline must not make it slower. Each guard times best-of-N for the
// whole-slice columnar path and the morselized path over the same data
// — morsel splitting (SliceRows per morsel) and the pipeline's claim /
// merge machinery are all inside the timed region, so the guard fails
// if streaming overhead ever eats the cache-residency win. Skipped
// under sanitizers: instrumentation distorts the relative costs.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <memory>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/column_batch.h"
#include "exec/morsel.h"
#include "exec/operators.h"
#include "exec/table.h"

namespace swift {
namespace {

#if defined(SWIFT_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// The morselized path may be up to this factor of the whole-slice path
// before the guard fires; everything beyond is a real regression.
constexpr double kSlack = 1.10;
constexpr int kTrials = 5;
constexpr int kRows = 64 * 1024;

template <typename Fn>
double BestSeconds(Fn&& fn) {
  double best = 1e300;
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::shared_ptr<Table> GuardTable(int nrows) {
  Rng rng(0x5EED);
  std::vector<Row> rows;
  for (int r = 0; r < nrows; ++r) {
    rows.push_back({Value(rng.UniformInt(0, 999)),
                    Value(rng.Uniform(0.0, 1.0)),
                    Value("s" + std::to_string(rng.UniformInt(0, 31)))});
  }
  return MakeTable("guard",
                   Schema({{"k", DataType::kInt64},
                           {"v", DataType::kFloat64},
                           {"s", DataType::kString}}),
                   std::move(rows))
      .ValueOrDie();
}

ExprPtr GuardPredicate() {
  return Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                      Expr::Literal(Value(int64_t{300})));
}

std::vector<ExprPtr> GuardExprs() {
  return {Expr::Binary(BinaryOp::kAdd, Expr::Column("k"),
                       Expr::Literal(Value(int64_t{7}))),
          Expr::Binary(BinaryOp::kMul, Expr::Column("v"), Expr::Column("v"))};
}

std::vector<MorselStep> GuardSteps() {
  std::vector<MorselStep> steps;
  MorselStep f;
  f.kind = MorselStep::Kind::kFilter;
  f.predicate = GuardPredicate();
  steps.push_back(std::move(f));
  MorselStep p;
  p.kind = MorselStep::Kind::kProject;
  p.exprs = GuardExprs();
  p.names = {"k7", "v2"};
  steps.push_back(std::move(p));
  return steps;
}

std::size_t DrainCountRows(PhysicalOperator* op) {
  EXPECT_TRUE(op->Open().ok());
  std::size_t rows = 0;
  for (;;) {
    auto cb = op->Next();
    EXPECT_TRUE(cb.ok());
    if (!cb->has_value()) break;
    rows += (*cb)->num_rows();
  }
  return rows;
}

// Serial whole-slice columnar — the pre-morsel scan shape: the task
// slice as one store slice (one batch), then FilterOp + ProjectOp. The
// slice is inside the timed region; it is what morselization replaces.
std::size_t RunWholeSlice(const Table& table) {
  const auto [begin, end] = table.TaskSliceBounds(0, 1);
  std::vector<ColumnBatch> v;
  v.push_back(table.data().SliceRows(begin, end - begin));
  auto op = MakeProject(
      MakeFilter(MakeColumnBatchSource(table.schema, std::move(v)),
                 GuardPredicate()),
      GuardExprs(), {"k7", "v2"});
  return DrainCountRows(op.get());
}

// Morselized scan: TableMorselSource slices <= 1K-row morsels out of the
// store and the pipeline streams them.
std::size_t RunMorselized(const std::shared_ptr<const Table>& table,
                          ThreadPool* pool, int lanes) {
  auto op = MakeParallelMorselPipeline(
      MakeTableMorselSource(table, 0, 1, table->schema, kDefaultMorselRows),
      GuardSteps(), pool, lanes);
  return DrainCountRows(op.get());
}

void ExpectNotSlower(const char* what, double base_s, double cand_s,
                     double slack) {
  EXPECT_LE(cand_s, base_s * slack)
      << what << ": " << cand_s * 1e3 << " ms vs baseline " << base_s * 1e3
      << " ms";
}

class MorselGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kSanitized) {
      GTEST_SKIP() << "timing guard skipped under sanitizers";
    }
  }
};

TEST_F(MorselGuardTest, SerialMorselsNotSlowerThanWholeSlice) {
  auto table = GuardTable(kRows);
  std::size_t rows_slice = 0, rows_morsel = 0;
  const double slice_s =
      BestSeconds([&] { rows_slice = RunWholeSlice(*table); });
  const double morsel_s =
      BestSeconds([&] { rows_morsel = RunMorselized(table, nullptr, 1); });
  ASSERT_EQ(rows_morsel, rows_slice);
  ExpectNotSlower("serial morsel pipeline", slice_s, morsel_s, kSlack);
}

// A compute-heavy projection: enough arithmetic per row that the morsel
// work dwarfs the pipeline's claim/merge bookkeeping. Light pipelines
// run serial-equivalent (helpers just add lock traffic); the lanes are
// there for exactly this kind of expression-bound segment.
std::vector<MorselStep> HeavySteps() {
  std::vector<MorselStep> steps;
  MorselStep f;
  f.kind = MorselStep::Kind::kFilter;
  f.predicate = GuardPredicate();
  steps.push_back(std::move(f));
  MorselStep p;
  ExprPtr acc = Expr::Column("v");
  for (int i = 0; i < 24; ++i) {
    acc = Expr::Binary(
        BinaryOp::kAdd, Expr::Binary(BinaryOp::kMul, acc, Expr::Column("v")),
        Expr::Binary(BinaryOp::kMul, Expr::Column("k"),
                     Expr::Literal(Value(0.001 * (i + 1)))));
  }
  p.kind = MorselStep::Kind::kProject;
  p.exprs = {acc, Expr::Column("k")};
  p.names = {"acc", "k"};
  steps.push_back(std::move(p));
  return steps;
}

std::size_t RunHeavy(const std::shared_ptr<const Table>& table,
                     ThreadPool* pool, int lanes) {
  auto op = MakeParallelMorselPipeline(
      MakeTableMorselSource(table, 0, 1, table->schema, kDefaultMorselRows),
      HeavySteps(), pool, lanes);
  return DrainCountRows(op.get());
}

TEST_F(MorselGuardTest, ParallelLanesNotSlowerThanSerialOnHeavyPipeline) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 cores: on a starved host extra lanes can "
                    "only add contention, which is not a regression signal";
  }
  auto table = GuardTable(kRows);
  ThreadPool pool(4);
  std::size_t rows_serial = 0, rows_par = 0;
  const double serial_s =
      BestSeconds([&] { rows_serial = RunHeavy(table, nullptr, 1); });
  const double par_s =
      BestSeconds([&] { rows_par = RunHeavy(table, &pool, 4); });
  ASSERT_EQ(rows_par, rows_serial);
  ExpectNotSlower("parallel morsel pipeline", serial_s, par_s, kSlack);
}

}  // namespace
}  // namespace swift
