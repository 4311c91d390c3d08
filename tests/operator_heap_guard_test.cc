// Heap guard for the sort-mode operator path (ctest label perf_guard).
//
// A Sort -> MergeJoin over two 64K-row int64 + string inputs drains
// 1,024-row morsels into each sort's columns. Those columns grow to
// exactly the rows they hold (AppendSelected / AppendRangeFrom reserve
// size()+n), so the heap in use while the drains run tracks the bytes
// drained so far. Growing them geometrically instead leaves up to 2x
// capacity slack on the fixed-width storage, which bench_e2e would only
// show as peak_rss_mb drift; here it fails a deterministic bound. The
// heap figure is mallinfo2's in-use bytes, sampled at every morsel pull.
// Skipped under sanitizers, whose allocators skew heap figures.

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/operators.h"

namespace swift {
namespace {

#if defined(SWIFT_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

constexpr std::size_t kRows = 64 * 1024;
constexpr std::size_t kMorsel = 1024;
constexpr std::size_t kStrLen = 4;
// Storage one drained row needs: the int64 key, the string's 8-byte
// offset entry and its bytes.
constexpr std::size_t kRowBytes = 8 + 8 + kStrLen;

std::size_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// Heap samples taken at every pull, against the rows pulled so far.
struct Samples {
  std::size_t baseline = 0;
  std::size_t rows_pulled = 0;  // over both inputs
  double worst_ratio = 0.0;     // max in-use / drained bytes
  std::size_t worst_rows = 0;
  std::size_t peak = 0;  // max in-use, bytes over baseline
};

// Emits `data` as kMorsel-row slices and samples the heap on each pull.
class SamplingSource final : public PhysicalOperator {
 public:
  SamplingSource(const ColumnBatch* data, Samples* samples)
      : data_(data), samples_(samples) {
    output_schema_ = data->schema;
  }
  Status Open() override { return Status::OK(); }
  Result<std::optional<ColumnBatch>> Next() override {
    const std::size_t used = HeapInUse() - samples_->baseline;
    samples_->peak = std::max(samples_->peak, used);
    // Ratios only once a few morsels are in, so fixed overheads (the
    // morsel in flight, operator state) do not dominate.
    if (samples_->rows_pulled >= 8 * kMorsel) {
      const double drained =
          static_cast<double>(samples_->rows_pulled * kRowBytes);
      const double ratio = static_cast<double>(used) / drained;
      if (ratio > samples_->worst_ratio) {
        samples_->worst_ratio = ratio;
        samples_->worst_rows = samples_->rows_pulled;
      }
    }
    if (pos_ >= data_->num_rows()) return std::optional<ColumnBatch>();
    ColumnBatch b = data_->SliceRows(pos_, kMorsel);
    pos_ += b.num_rows();
    samples_->rows_pulled += b.num_rows();
    return std::optional<ColumnBatch>(std::move(b));
  }

 private:
  const ColumnBatch* data_;
  Samples* samples_;
  std::size_t pos_ = 0;
};

// kRows rows: a shuffled int64 key 0..kRows-1 and a kStrLen-byte string.
ColumnBatch Input(uint64_t seed) {
  std::vector<int64_t> keys(kRows);
  std::iota(keys.begin(), keys.end(), int64_t{0});
  Rng rng(seed);
  for (std::size_t i = kRows - 1; i > 0; --i) {
    std::swap(keys[i], keys[static_cast<std::size_t>(
                           rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  ColumnBatch b =
      EmptyBatchOf(Schema({{"k", DataType::kInt64}, {"p", DataType::kString}}));
  for (const int64_t k : keys) {
    b.columns[0].AppendInt64(k);
    b.columns[1].AppendString(
        std::string(kStrLen, static_cast<char>('a' + k % 26)));
  }
  b.physical_rows = kRows;
  return b;
}

TEST(OperatorHeapGuardTest, SortMergeJoinDrainHoldsNoCapacitySlack) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators skew heap figures";
  const ColumnBatch left = Input(1);
  const ColumnBatch right = Input(2);
  Samples samples;
  std::size_t out_rows = 0;
  {
    samples.baseline = HeapInUse();
    const std::vector<ExprPtr> key = {Expr::Column("k")};
    OperatorPtr join = MakeMergeJoin(
        MakeSort(std::make_unique<SamplingSource>(&left, &samples),
                 {SortKey{key[0], true}}),
        MakeSort(std::make_unique<SamplingSource>(&right, &samples),
                 {SortKey{key[0], true}}),
        key, key);
    ASSERT_TRUE(join->Open().ok());
    Result<std::optional<ColumnBatch>> out = join->Next();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE(out->has_value());
    out_rows = (*out)->num_rows();
  }
  EXPECT_EQ(out_rows, kRows);
  ASSERT_EQ(samples.rows_pulled, 2 * kRows);
  // Exact reservation: 1.2x, the left sort's held rows plus its 4-byte
  // permutation entry per row, when the right drain starts; the peak is
  // both inputs plus that permutation, 2.75 MB over 2.50 MB drained.
  // With 4-byte string offsets (16 bytes a row) a geometric-growth build
  // measured 1.95x (at 33,792 rows, just past a doubling) and a peak of
  // 1.38x the drained bytes; the peak bound is 1.25x them.
  const double mb = 1024.0 * 1024.0;
  const double peak_mb = static_cast<double>(samples.peak) / mb;
  const double drained_mb = static_cast<double>(2 * kRows * kRowBytes) / mb;
  EXPECT_LE(samples.worst_ratio, 1.35)
      << "drained columns hold " << samples.worst_ratio
      << "x the bytes of their rows (at " << samples.worst_rows
      << " rows pulled)";
  EXPECT_LE(peak_mb, 1.25 * drained_mb)
      << "heap in use peaked at " << peak_mb << " MB";
}

}  // namespace
}  // namespace swift
