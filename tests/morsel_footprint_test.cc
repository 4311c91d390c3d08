// Deterministic perf guard (ctest label perf_guard) on what morsels buy:
// a bounded resident-row footprint. A pipeline-only tree pulls its scan
// slice one morsel of kDefaultMorselRows rows at a time, so at every
// downstream Next() the rows it has taken out of the source stay within
// MorselClaimWindow(lanes) morsels of what it has emitted. A pipeline
// that drained its whole slice before emitting would hold all kRows rows
// at the first Next() and fail. The guard counts rows, not time, so it
// holds on any core count and under sanitizers.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/column_batch.h"
#include "exec/morsel.h"
#include "exec/operators.h"
#include "exec/table.h"

namespace swift {
namespace {

constexpr std::size_t kRows = 64 * 1024;

std::shared_ptr<const Table> FootprintTable() {
  Rng rng(0x5EED);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    rows.push_back({Value(rng.UniformInt(0, 999)), Value(rng.Uniform(0.0, 1.0))});
  }
  return MakeTable("footprint",
                   Schema({{"k", DataType::kInt64}, {"v", DataType::kFloat64}}),
                   std::move(rows))
      .ValueOrDie();
}

// Filter k > 300 (keeps ~70% of every morsel), then project two columns.
OperatorPtr FootprintChain(OperatorPtr in) {
  return MakeProject(
      MakeFilter(std::move(in),
                 Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                              Expr::Literal(Value(int64_t{300})))),
      {Expr::Binary(BinaryOp::kAdd, Expr::Column("k"),
                    Expr::Literal(Value(int64_t{7}))),
       Expr::Binary(BinaryOp::kMul, Expr::Column("v"), Expr::Column("v"))},
      {"k7", "v2"});
}

// Passes its child's batches through and counts the rows pulled out of
// it. Helper lanes pull too, so the count is atomic.
class CountingSource final : public PhysicalOperator {
 public:
  CountingSource(OperatorPtr child, std::atomic<std::size_t>* pulled)
      : child_(std::move(child)), pulled_(pulled) {
    output_schema_ = child_->output_schema();
  }

  Status Open() override { return child_->Open(); }

  Result<std::optional<ColumnBatch>> Next() override {
    Result<std::optional<ColumnBatch>> r = child_->Next();
    if (r.ok() && r->has_value()) pulled_->fetch_add((*r)->num_rows());
    return r;
  }

 private:
  OperatorPtr child_;
  std::atomic<std::size_t>* pulled_;
};

// Drains a `lanes`-lane pipeline over the table's one task slice and
// checks the footprint bound after every downstream Next().
void ExpectWithinClaimWindow(ThreadPool* pool, int lanes) {
  const std::shared_ptr<const Table> table = FootprintTable();
  std::atomic<std::size_t> pulled{0};
  auto op = MakeParallelMorselPipeline(
      std::make_unique<CountingSource>(
          MakeTableMorselSource(table, 0, 1, table->schema,
                                kDefaultMorselRows),
          &pulled),
      FootprintChain, pool, lanes);
  ASSERT_TRUE(op->Open().ok());
  const std::size_t window = MorselClaimWindow(lanes);
  std::size_t emitted = 0;
  for (;;) {
    auto cb = op->Next();
    ASSERT_TRUE(cb.ok()) << cb.status().ToString();
    if (!cb->has_value()) break;
    ++emitted;
    // Read after Next() returned: helpers may claim more meanwhile, but
    // only up to the window past what the consumer has re-emitted.
    const std::size_t now = pulled.load();
    ASSERT_LE(now, (emitted + window) * kDefaultMorselRows)
        << "after " << emitted << " emitted morsels the pipeline has pulled "
        << now << " rows: more than " << window << " morsels ahead";
  }
  EXPECT_EQ(pulled.load(), kRows);
  // Every morsel keeps rows through the filter, so emitted morsels are
  // exactly the retired ones the claim gate counts.
  EXPECT_EQ(emitted, kRows / kDefaultMorselRows);
}

TEST(MorselFootprintGuard, SerialPipelineStaysWithinClaimWindow) {
  ExpectWithinClaimWindow(nullptr, 1);
}

TEST(MorselFootprintGuard, ParallelPipelineStaysWithinClaimWindow) {
  ThreadPool pool(4);
  ExpectWithinClaimWindow(&pool, 4);
}

}  // namespace
}  // namespace swift
