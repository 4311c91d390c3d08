// Morsel allocation guard (ctest label perf_guard).
//
// A morsel should cost references, not copies: every batch carries a
// Schema, which is a shared immutable value (a copy is a refcount
// bump), and the expression kernels read a column operand in place and
// a literal as one scalar cell, so a predicate like `k < 500` never
// builds a column of 500s. This binary replaces the global operator new
// with a counting one and bounds the allocation calls per morsel while
// 64 morsels of 1,024 rows run through
//   FilterOp(k < 500 AND s = 'abc') -> ProjectOp(k, v * 2) -> sink
// (counts, not clocks). Either regression adds allocations to every
// morsel: a Schema copy that rebuilds its fields, name pool and
// indexes, or a literal broadcast into a full column (a string literal
// grows its heap in steps). Skipped under sanitizers, which bring their
// own allocators.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "exec/column_batch.h"
#include "exec/operators.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_calls{0};

}  // namespace

#if !defined(SWIFT_SANITIZED)
// GCC pairs these frees with the replaced operator new as a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace swift {
namespace {

#if defined(SWIFT_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

constexpr std::size_t kMorsels = 64;
constexpr std::size_t kMorselRows = 1024;
// Allocation calls one morsel may make on its way through the filter
// and the projection. Measured: 6.02 (the filter's two compare outputs
// and its selection vector, the projection's column vector, its
// gathered `k` and its `v * 2`; the 0.02 is the first morsel's
// predicate column, reused after). The bound leaves 2 calls of slack
// for a standard library that allocates differently. A Schema copy that
// rebuilds its block reads 24.02 (three copies per morsel, 6 calls
// each), literals broadcast into columns read 18.02, and the engine
// before both read 26.
constexpr double kMaxCallsPerMorsel = 8.0;

Schema InputSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64},
                 {"s", DataType::kString}});
}

std::vector<ColumnBatch> Morsels(const Schema& schema) {
  static const char* const kStrings[] = {"abc", "xyz", "ab", "abcd"};
  std::vector<ColumnBatch> out;
  for (std::size_t m = 0; m < kMorsels; ++m) {
    ColumnBatch b = EmptyBatchOf(schema);
    for (std::size_t r = 0; r < kMorselRows; ++r) {
      b.columns[0].AppendInt64(static_cast<int64_t>(r));
      b.columns[1].AppendInt64(static_cast<int64_t>(m * kMorselRows + r));
      b.columns[2].AppendString(kStrings[r % 4]);
    }
    b.physical_rows = kMorselRows;
    out.push_back(std::move(b));
  }
  return out;
}

TEST(MorselAllocGuardTest, FilterProjectMorselsAllocateAFewTimesEach) {
  if (kSanitized) GTEST_SKIP() << "sanitizers bring their own allocators";
  const Schema schema = InputSchema();
  OperatorPtr plan = MakeProject(
      MakeFilter(MakeColumnBatchSource(schema, Morsels(schema)),
                 Expr::Binary(BinaryOp::kAnd,
                              Expr::Binary(BinaryOp::kLt, Expr::Column("k"),
                                           Expr::Literal(Value(int64_t{500}))),
                              Expr::Binary(BinaryOp::kEq, Expr::Column("s"),
                                           Expr::Literal(Value("abc"))))),
      {Expr::Column("k"),
       Expr::Binary(BinaryOp::kMul, Expr::Column("v"),
                    Expr::Literal(Value(int64_t{2})))},
      {"k", "v2"});
  ASSERT_TRUE(plan->Open().ok());
  std::size_t morsels = 0;
  std::size_t rows = 0;
  int64_t v2_sum = 0;
  g_calls = 0;
  g_counting = true;
  for (;;) {
    Result<std::optional<ColumnBatch>> b = plan->Next();
    if (!b.ok() || !b->has_value()) {
      g_counting = false;
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      break;
    }
    ++morsels;
    rows += (*b)->num_rows();
    const ColumnVector& v2 = (*b)->columns[1];
    for (std::size_t i = 0; i < v2.size(); ++i) v2_sum += v2.Int64At(i);
  }
  g_counting = false;
  // Rows k < 500 with s = 'abc': k = 0, 4, ..., 496 in every morsel.
  ASSERT_EQ(morsels, kMorsels);
  ASSERT_EQ(rows, kMorsels * 125);
  int64_t want = 0;
  for (std::size_t m = 0; m < kMorsels; ++m) {
    for (int64_t k = 0; k < 500; k += 4) {
      want += 2 * (static_cast<int64_t>(m * kMorselRows) + k);
    }
  }
  EXPECT_EQ(v2_sum, want);
  const double per_morsel =
      static_cast<double>(g_calls.load()) / static_cast<double>(kMorsels);
  EXPECT_LE(per_morsel, kMaxCallsPerMorsel)
      << "each morsel made " << per_morsel << " allocation calls";
}

}  // namespace
}  // namespace swift
