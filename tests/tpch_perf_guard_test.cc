// Standing perf gate (ctest label perf_guard): TPC-H at a larger scale
// factor than the correctness suites, forced onto the compressed Remote
// path, codec-throughput floors on real TPC-H shuffle payloads, a heap
// ceiling on the generated table store, and the suite's shuffle bytes
// and task count.
// Guards catch order-of-magnitude regressions (a quadratic match loop,
// an accidental copy per block), so the floors sit well under the
// steady-state numbers in EXPERIMENTS.md; timing is best-of-N against
// scheduler noise. Timed guards skip under sanitizers — instrumentation
// distorts byte-level codec cost by an order of magnitude; the counts
// run everywhere.

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "common/compress.h"
#include "exec/serde.h"
#include "exec/tpch.h"
#include "runtime/local_runtime.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace {

#if defined(SWIFT_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

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

// A real shuffle payload: serialized TPC-H lineitem rows, the same
// bytes the compressed Remote path frames in production.
std::string LineitemWire(double scale_factor) {
  TpchConfig cfg;
  cfg.scale_factor = scale_factor;
  return SerializeColumnBatch(TpchLineitem(cfg)->data());
}

TEST(TpchPerfGuardTest, CodecThroughputFloorsOnTpchPayload) {
  if (kSanitized) GTEST_SKIP() << "codec timing meaningless under sanitizers";
  const std::string wire = LineitemWire(0.01);
  ASSERT_GT(wire.size(), 4u << 20) << "payload too small to time";

  std::string frame;
  const double comp_s = BestSeconds([&] { frame = CompressFrame(wire); });
  ASSERT_LT(frame.size(), wire.size());
  std::string back;
  const double decomp_s = BestSeconds([&] {
    auto r = DecompressFrame(frame);
    ASSERT_TRUE(r.ok());
    back = std::move(*r);
  });
  ASSERT_EQ(back, wire);

  const double mb = static_cast<double>(wire.size()) / (1024.0 * 1024.0);
  const double comp_mbs = mb / comp_s;
  const double decomp_mbs = mb / decomp_s;
  // Regression floors (steady-state numbers live in EXPERIMENTS.md /
  // BENCH_PR10.json; these fire on a real slowdown, not timer jitter).
  EXPECT_GE(comp_mbs, 150.0) << "compress fell to " << comp_mbs << " MB/s";
  EXPECT_GE(decomp_mbs, 500.0) << "decompress fell to " << decomp_mbs
                               << " MB/s";
  // The plane only pays for frames that win; TPC-H payloads must keep
  // winning big or the ≥30% byte-savings acceptance dies silently.
  EXPECT_LE(frame.size(), (wire.size() * 7) / 10);
}

// Heap held by malloc: small chunks plus the mmapped large ones.
std::size_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// The generated catalog lives in the columnar store: 8-byte numerics
// and one string heap per column with 8-byte offsets. Measured 5.0 MB at
// sf 0.005; holding it as boxed rows took 18.8 MB, so a return to
// per-cell boxing trips the 6 MB ceiling.
TEST(TpchPerfGuardTest, GeneratedCatalogHeapBound) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators skew heap figures";
  TpchConfig tpch;
  tpch.scale_factor = 0.005;
  const std::size_t before = HeapInUse();
  Catalog catalog;
  ASSERT_TRUE(GenerateTpch(tpch, &catalog).ok());
  const std::size_t after = HeapInUse();
  const double mb = static_cast<double>(after - before) / (1024.0 * 1024.0);
  EXPECT_LE(mb, 6.0) << "generated catalog holds " << mb << " MB of heap";
}

TEST(TpchPerfGuardTest, LargerScaleTpchOverCompressedRemotePath) {
  // 5x the scale factor of the correctness suites; every edge Remote,
  // compression on — the configuration the byte-savings acceptance
  // measures, kept alive as a ctest-visible gate.
  LocalRuntimeConfig cfg;
  cfg.force_shuffle_kind = ShuffleKind::kRemote;
  LocalRuntime rt(cfg);
  TpchConfig tpch;
  tpch.scale_factor = 0.01;
  ASSERT_TRUE(GenerateTpch(tpch, rt.catalog()).ok());

  const auto t0 = std::chrono::steady_clock::now();
  auto report = rt.RunSql(
      "SELECT l_orderkey, l_linenumber, l_extendedprice, l_shipdate, "
      "l_shipmode FROM tpch_lineitem ORDER BY l_orderkey, l_linenumber");
  const auto t1 = std::chrono::steady_clock::now();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->result.num_rows(), 0u);
  EXPECT_GT(report->stats.shuffle.compressed_writes, 0);
  EXPECT_GT(report->stats.decompressed_frames, 0);
  EXPECT_LT(report->stats.shuffle.compress_bytes_out,
            report->stats.shuffle.compress_bytes_in);
  if (!kSanitized) {
    // Loose wall ceiling: this query ran in well under a tenth of this
    // on the reference container; only a gross regression trips it.
    EXPECT_LT(std::chrono::duration<double>(t1 - t0).count(), 120.0);
  }
}

// Exchange elision (DESIGN.md Sec. 20) as counts, which repeat exactly:
// the TPC-H suite in sort mode at sf 0.005 on a default runtime ships no
// more bytes and runs no more tasks than measured once an aggregate over
// a co-partitioned join and a one-task tail run in their input's stage
// (10,549,512 bytes, 165 tasks). Planned with an exchange in front of
// every aggregate and sink, the suite ships 12,613,078 bytes in 188
// tasks.
TEST(TpchPerfGuardTest, SuiteShuffleBytesAndTaskCount) {
  LocalRuntime rt;
  TpchConfig tpch;
  tpch.scale_factor = 0.005;
  ASSERT_TRUE(GenerateTpch(tpch, rt.catalog()).ok());
  int64_t tasks = 0;
  for (int q : RunnableTpchQueries()) {
    auto report = rt.RunSql(*TpchQuerySql(q));
    ASSERT_TRUE(report.ok()) << "Q" << q << ": " << report.status().ToString();
    tasks += report->stats.tasks_executed;
  }
  // The service counts over the runtime's life: here, the suite.
  const int64_t bytes = rt.shuffle_service()->stats().bytes_transferred;
  EXPECT_LE(bytes, 10549512);
  EXPECT_LE(tasks, 165);
}

}  // namespace
}  // namespace swift
