// Drain allocation guard (ctest label perf_guard).
//
// Every pipeline breaker drains its input morsels into one batch. The
// drain must copy each row once: it holds the morsels, sizes each
// output column once to their summed rows and appends. An append that
// reserves exactly size()+n instead reallocates the whole column on
// every morsel, so a drain of k morsels copies O(k^2) rows; over 256
// morsels that allocates about 100x the drained bytes. This binary
// replaces the global operator new with a counting one and bounds the
// bytes allocated while a 256-morsel drain runs at 2.5x the bytes it
// drains (counts, not clocks). Skipped under sanitizers, which bring
// their own allocators.

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
std::atomic<std::size_t> g_bytes{0};

}  // namespace

#if !defined(SWIFT_SANITIZED)
// GCC pairs these frees with the replaced operator new as a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(n, std::memory_order_relaxed);
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

constexpr std::size_t kMorsels = 256;
constexpr std::size_t kMorselRows = 1024;
constexpr std::size_t kStrLen = 4;
// Storage one drained row needs: the int64, the string's 8-byte offset
// entry and its bytes.
constexpr std::size_t kRowBytes = 8 + 8 + kStrLen;

std::vector<ColumnBatch> Morsels(const Schema& schema) {
  std::vector<ColumnBatch> out;
  for (std::size_t m = 0; m < kMorsels; ++m) {
    ColumnBatch b = EmptyBatchOf(schema);
    for (std::size_t r = 0; r < kMorselRows; ++r) {
      b.columns[0].AppendInt64(static_cast<int64_t>(m * kMorselRows + r));
      b.columns[1].AppendString(
          std::string(kStrLen, static_cast<char>('a' + r % 26)));
    }
    b.physical_rows = kMorselRows;
    out.push_back(std::move(b));
  }
  return out;
}

TEST(DrainAllocGuardTest, DrainAllocatesAboutTheBytesItDrains) {
  if (kSanitized) GTEST_SKIP() << "sanitizers bring their own allocators";
  const Schema schema({{"k", DataType::kInt64}, {"p", DataType::kString}});
  OperatorPtr source = MakeColumnBatchSource(schema, Morsels(schema));
  g_bytes = 0;
  g_counting = true;
  Result<ColumnBatch> out = CollectAllColumnar(source.get());
  g_counting = false;
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->num_rows(), kMorsels * kMorselRows);
  EXPECT_EQ(out->columns[0].Int64At(12345), 12345);
  EXPECT_EQ(out->columns[1].StrAt(27), std::string(kStrLen, 'b'));
  const double drained =
      static_cast<double>(kMorsels * kMorselRows * kRowBytes);
  const double ratio = static_cast<double>(g_bytes.load()) / drained;
  EXPECT_LE(ratio, 2.5) << "the drain allocated " << ratio
                        << "x the bytes it drained";
}

}  // namespace
}  // namespace swift
