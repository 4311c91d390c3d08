// Bench regression guard (ctest label morsel_smoke): helper lanes must
// not make an expression-bound morsel pipeline slower than serial
// morsels. Best-of-N timing with the pipeline's claim / merge machinery
// inside the timed region. Skipped under sanitizers: instrumentation
// distorts the relative costs. What morsels buy over a whole slice, the
// resident-row footprint, is guarded by counts in morsel_footprint_test.

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

// The parallel path may be up to this factor of the serial path before
// the guard fires; everything beyond is a real regression.
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

// A compute-heavy projection: enough arithmetic per row that the morsel
// work dwarfs the pipeline's claim/merge bookkeeping. Light pipelines
// run serial-equivalent (helpers just add lock traffic); the lanes are
// there for exactly this kind of expression-bound segment.
OperatorPtr HeavyChain(OperatorPtr in) {
  ExprPtr acc = Expr::Column("v");
  for (int i = 0; i < 24; ++i) {
    acc = Expr::Binary(
        BinaryOp::kAdd, Expr::Binary(BinaryOp::kMul, acc, Expr::Column("v")),
        Expr::Binary(BinaryOp::kMul, Expr::Column("k"),
                     Expr::Literal(Value(0.001 * (i + 1)))));
  }
  return MakeProject(MakeFilter(std::move(in), GuardPredicate()),
                     {acc, Expr::Column("k")}, {"acc", "k"});
}

std::size_t RunHeavy(const std::shared_ptr<const Table>& table,
                     ThreadPool* pool, int lanes) {
  auto op = MakeParallelMorselPipeline(
      MakeTableMorselSource(table, 0, 1, table->schema, kDefaultMorselRows),
      HeavyChain, pool, lanes);
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
