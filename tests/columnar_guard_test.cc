// Bench regression guard (ctest label vec_smoke): decoding a shuffle
// payload straight into columns must never be slower than the row
// decoder. The guard times best-of-N for both decoders on the same
// bytes and fails if the columnar one loses (with a small tolerance for
// timer noise). Skipped under sanitizers — instrumentation overhead
// distorts the relative cost of the two paths.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/serde.h"

namespace swift {
namespace {

#if defined(SWIFT_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// The columnar decoder may take up to this factor of the row decoder's
// time before the guard fires; beyond it is a regression, not noise.
constexpr double kSlack = 1.10;
constexpr int kTrials = 5;

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

Batch GuardBatch(int nrows) {
  Rng rng(0x5EED);
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64},
                     {"v", DataType::kFloat64},
                     {"s", DataType::kString}});
  for (int r = 0; r < nrows; ++r) {
    b.rows.push_back({Value(rng.UniformInt(0, 999)),
                      Value(rng.Uniform(0.0, 1.0)),
                      Value("s" + std::to_string(rng.UniformInt(0, 31)))});
  }
  return b;
}

void ExpectNotSlower(const char* what, double row_s, double col_s) {
  EXPECT_LE(col_s, row_s * kSlack)
      << what << ": columnar " << col_s * 1e3 << " ms vs row "
      << row_s * 1e3 << " ms";
}

class ColumnarGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kSanitized) {
      GTEST_SKIP() << "timing guard skipped under sanitizers";
    }
  }
};

TEST_F(ColumnarGuardTest, ColumnarDecodeNotSlowerThanRowDecode) {
  const Batch b = GuardBatch(200000);
  const std::string bytes = SerializeBatch(b);
  const double row_s = BestSeconds([&] {
    ASSERT_TRUE(DeserializeBatch(bytes).ok());
  });
  const double col_s = BestSeconds([&] {
    ASSERT_TRUE(DeserializeColumnBatch(bytes).ok());
  });
  ExpectNotSlower("v2 decode", row_s, col_s);
}

}  // namespace
}  // namespace swift
