// Compressed shuffle plane end-to-end (DESIGN.md Sec. 17): per-edge
// negotiation picks exactly the barrier edges worth framing, spill
// files shrink on disk and reload byte-exactly, load-aware replica
// placement targets the least-loaded worker and survives the writer's
// machine loss, and TPC-H through the full runtime is byte-identical
// with compression on or off while moving >= 30% fewer Remote bytes.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/compress.h"
#include "exec/serde.h"
#include "exec/tpch.h"
#include "runtime/local_runtime.h"
#include "shuffle/cache_worker.h"
#include "shuffle/shuffle_service.h"

namespace swift {
namespace {

ShuffleSlotKey Key(int src_task, int dst_task, JobId job = 1,
                   StageId src = 0, StageId dst = 1) {
  return ShuffleSlotKey{job, src, src_task, dst, dst_task};
}

// ~64 KiB of TPC-H-flavored text: compresses well, so every negotiation
// decision in these tests is about policy, not codec luck.
std::string CompressiblePayload(std::size_t target = 64 * 1024) {
  std::string out;
  for (int i = 0; out.size() < target; ++i) {
    out += "lineitem|" + std::to_string(i) + "|1995-03-15|AIR|deliver in person|";
  }
  return out;
}

TEST(CompressNegotiationTest, RemoteBarrierEdgeCompresses) {
  ShuffleService::Config cfg;
  cfg.machines = 2;
  ShuffleService svc(cfg);
  const std::string payload = CompressiblePayload();
  ASSERT_TRUE(svc.WritePartition(ShuffleKind::kRemote, Key(0, 0), payload, 0,
                                 /*pipelined=*/false)
                  .ok());
  auto stats = svc.stats();
  EXPECT_EQ(stats.compressed_writes, 1);
  EXPECT_EQ(stats.compress_bytes_in, static_cast<int64_t>(payload.size()));
  EXPECT_LT(stats.compress_bytes_out, stats.compress_bytes_in);
  // The wire accounting sees the framed size, not the logical payload.
  EXPECT_EQ(stats.bytes_transferred, stats.compress_bytes_out);

  auto read = svc.ReadPartition(ShuffleKind::kRemote, Key(0, 0), 1, 0);
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(IsCompressedFrame(read->view()));
  auto raw = DecompressFrame(read->view());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, payload);
}

TEST(CompressNegotiationTest, DirectAndPipelinedAndSmallEdgesStayRaw) {
  ShuffleService::Config cfg;
  cfg.machines = 2;
  ShuffleService svc(cfg);
  const std::string big = CompressiblePayload();
  // Direct edges stream task-to-task: never framed.
  ASSERT_TRUE(
      svc.WritePartition(ShuffleKind::kDirect, Key(0, 0), big, 0, false).ok());
  // Local pipeline pushes race the reader: never framed.
  ASSERT_TRUE(
      svc.WritePartition(ShuffleKind::kLocal, Key(1, 0), big, 0, true).ok());
  // Below the negotiation threshold: not worth the codec.
  ASSERT_TRUE(svc.WritePartition(ShuffleKind::kRemote, Key(2, 0),
                                 std::string(1024, 'a'), 0, false)
                  .ok());
  EXPECT_EQ(svc.stats().compressed_writes, 0);

  // Local *barrier* edges are parked on the writer side until pulled:
  // these do compress.
  ASSERT_TRUE(
      svc.WritePartition(ShuffleKind::kLocal, Key(3, 0), big, 0, false).ok());
  EXPECT_EQ(svc.stats().compressed_writes, 1);
}

TEST(CompressNegotiationTest, IncompressiblePayloadShipsRawAndCounts) {
  ShuffleService::Config cfg;
  cfg.machines = 2;
  ShuffleService svc(cfg);
  std::string noise(64 * 1024, '\0');
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (char& c : noise) {
    x ^= x >> 12; x ^= x << 25; x ^= x >> 27;
    c = static_cast<char>((x * 0x2545F4914F6CDD1DULL) >> 56);
  }
  ASSERT_TRUE(svc.WritePartition(ShuffleKind::kRemote, Key(0, 0), noise, 0,
                                 false)
                  .ok());
  auto stats = svc.stats();
  EXPECT_EQ(stats.compressed_writes, 0);
  EXPECT_EQ(stats.compress_skipped, 1);
  EXPECT_EQ(stats.bytes_transferred, static_cast<int64_t>(noise.size()));
  auto read = svc.ReadPartition(ShuffleKind::kRemote, Key(0, 0), 1, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->view(), noise);
}

TEST(CompressNegotiationTest, CompressionOffIsByteExactPassthrough) {
  ShuffleService::Config cfg;
  cfg.machines = 2;
  cfg.compression = false;
  ShuffleService svc(cfg);
  const std::string payload = CompressiblePayload();
  ASSERT_TRUE(
      svc.WritePartition(ShuffleKind::kRemote, Key(0, 0), payload, 0, false)
          .ok());
  EXPECT_EQ(svc.stats().compressed_writes, 0);
  auto read = svc.ReadPartition(ShuffleKind::kRemote, Key(0, 0), 1, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->view(), payload);
}

class SpillCompressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("swift_compress_spill_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(SpillCompressionTest, SpillsCompressedAndReloadsByteExact) {
  const std::string payload = CompressiblePayload();
  CacheWorkerOptions opt;
  // Budget fits one slot: the second put LRU-spills the first.
  opt.memory_budget_bytes = static_cast<int64_t>(payload.size()) + 1024;
  opt.spill_dir = dir_.string();
  CacheWorker cw(opt);
  ASSERT_TRUE(cw.Put(Key(0, 0), payload, /*expected_reads=*/0).ok());
  ASSERT_TRUE(cw.Put(Key(1, 0), payload, /*expected_reads=*/0).ok());

  auto stats = cw.stats();
  ASSERT_GE(stats.spilled_slots, 1);
  EXPECT_EQ(stats.spill_compressed_slots, stats.spilled_slots);
  // >= 30% disk savings on this payload (acceptance bound; the codec
  // actually does far better on TPC-H-like text).
  EXPECT_LE(stats.spill_stored_bytes, (stats.spilled_bytes * 7) / 10);
  // The disk budget charges stored (compressed) bytes + footer.
  EXPECT_LT(stats.spill_disk_in_use, stats.spilled_bytes);

  // Reload hands back the original bytes, not the frame.
  auto r = cw.Peek(Key(0, 0));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->view(), payload);
  EXPECT_GE(cw.stats().reloads, 1);
}

TEST_F(SpillCompressionTest, SpillCompressionOffStoresRaw) {
  const std::string payload = CompressiblePayload();
  CacheWorkerOptions opt;
  opt.memory_budget_bytes = static_cast<int64_t>(payload.size()) + 1024;
  opt.spill_dir = dir_.string();
  opt.spill_compression = false;
  CacheWorker cw(opt);
  ASSERT_TRUE(cw.Put(Key(0, 0), payload, 0).ok());
  ASSERT_TRUE(cw.Put(Key(1, 0), payload, 0).ok());
  auto stats = cw.stats();
  ASSERT_GE(stats.spilled_slots, 1);
  EXPECT_EQ(stats.spill_compressed_slots, 0);
  EXPECT_EQ(stats.spill_stored_bytes, stats.spilled_bytes);
  auto r = cw.Peek(Key(0, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->view(), payload);
}

TEST(ReplicaPlacementTest, LoadAwarePicksLeastLoadedWorker) {
  ShuffleService::Config cfg;
  cfg.machines = 4;
  cfg.replica_fanout = 2;
  ShuffleService svc(cfg);
  // Preload workers 1 and 3 so worker 2 is clearly the least loaded.
  ASSERT_TRUE(svc.worker(1)->Put(Key(90, 0, 9), std::string(256 * 1024, 'x'), 0).ok());
  ASSERT_TRUE(svc.worker(3)->Put(Key(91, 0, 9), std::string(128 * 1024, 'y'), 0).ok());

  const std::string payload = CompressiblePayload();
  ASSERT_TRUE(
      svc.WritePartition(ShuffleKind::kRemote, Key(0, 0), payload, 0, false)
          .ok());
  EXPECT_EQ(svc.stats().replica_writes, 1);
  EXPECT_TRUE(svc.worker(0)->Contains(Key(0, 0)));  // writer-side copy
  EXPECT_TRUE(svc.worker(2)->Contains(Key(0, 0)));  // least-loaded replica
  EXPECT_FALSE(svc.worker(1)->Contains(Key(0, 0)));
  EXPECT_FALSE(svc.worker(3)->Contains(Key(0, 0)));
}

TEST(ReplicaPlacementTest, ReplicaSurvivesWriterMachineLoss) {
  ShuffleService::Config cfg;
  cfg.machines = 3;
  cfg.replica_fanout = 2;
  ShuffleService svc(cfg);
  const std::string payload = CompressiblePayload();
  ASSERT_TRUE(
      svc.WritePartition(ShuffleKind::kRemote, Key(0, 0), payload, 0, false)
          .ok());
  svc.FailMachine(0);
  auto read = svc.ReadPartition(ShuffleKind::kRemote, Key(0, 0), 1, 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(IsCompressedFrame(read->view()));
  auto raw = DecompressFrame(read->view());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, payload);
  EXPECT_GE(svc.stats().failover_reads, 1);
}

TEST(ReplicaPlacementTest, FanoutOneIsOffAndChangesNothing) {
  ShuffleService::Config cfg;
  cfg.machines = 3;
  ShuffleService svc(cfg);
  ASSERT_TRUE(svc.WritePartition(ShuffleKind::kRemote, Key(0, 0),
                                 CompressiblePayload(), 0, false)
                  .ok());
  EXPECT_EQ(svc.stats().replica_writes, 0);
  EXPECT_FALSE(svc.worker(1)->Contains(Key(0, 0)));
  EXPECT_FALSE(svc.worker(2)->Contains(Key(0, 0)));
}

TEST(ReplicaPlacementTest, PerWorkerLoadReportsResidentAndSpill) {
  ShuffleService::Config cfg;
  cfg.machines = 2;
  ShuffleService svc(cfg);
  ASSERT_TRUE(svc.worker(1)->Put(Key(5, 0), std::string(4096, 'z'), 0).ok());
  auto load = svc.per_worker_load();
  ASSERT_EQ(load.size(), 2u);
  EXPECT_EQ(load[0].machine, 0);
  EXPECT_EQ(load[0].resident_bytes, 0);
  EXPECT_EQ(load[1].resident_bytes, 4096);
  EXPECT_EQ(load[1].spill_disk_bytes, 0);
  EXPECT_FALSE(load[1].dead);
  svc.FailMachine(1);
  EXPECT_TRUE(svc.per_worker_load()[1].dead);
}

// Full-runtime acceptance: identical TPC-H answer bytes with the
// compressed plane on or off, >= 30% fewer shuffle bytes moved when on,
// and the read side actually exercising the decode path.
class CompressTpchTest : public ::testing::Test {
 protected:
  static JobRunReport Run(bool compression) {
    LocalRuntimeConfig cfg;
    cfg.shuffle_compression = compression;
    // Force every edge Remote so the whole shuffle volume rides the
    // compressed barrier path (the acceptance metric of ISSUE 10).
    cfg.force_shuffle_kind = ShuffleKind::kRemote;
    LocalRuntime rt(cfg);
    TpchConfig tpch;
    tpch.scale_factor = 0.004;
    EXPECT_TRUE(GenerateTpch(tpch, rt.catalog()).ok());
    // The order-by ships every lineitem row, narrowed to the five
    // selected columns (two of them strings), across the forced edge.
    auto report = rt.RunSql(
        "SELECT l_orderkey, l_linenumber, l_extendedprice, l_shipdate, l_shipmode "
        "FROM tpch_lineitem ORDER BY l_orderkey, l_linenumber");
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *std::move(report) : JobRunReport{};
  }
};

TEST_F(CompressTpchTest, ByteIdenticalResultsAndRemoteByteSavings) {
  JobRunReport off = Run(false);
  JobRunReport on = Run(true);
  ASSERT_GT(off.result.num_rows(), 0u);
  // Byte-identity of the answer, the strongest equivalence serde offers.
  EXPECT_EQ(SerializeBatch(on.result), SerializeBatch(off.result));

  EXPECT_EQ(off.stats.shuffle.compressed_writes, 0);
  ASSERT_GT(on.stats.shuffle.compressed_writes, 0);
  EXPECT_GT(on.stats.decompressed_frames, 0);
  EXPECT_EQ(on.stats.corrupt_read_retries, 0);
  // The compressed run moves >= 30% fewer bytes across the fabric.
  EXPECT_LE(on.stats.shuffle.bytes_transferred,
            (off.stats.shuffle.bytes_transferred * 7) / 10)
      << "on: " << on.stats.shuffle.bytes_transferred
      << " off: " << off.stats.shuffle.bytes_transferred;
}

TEST(CompressChaosTest, FrameCorruptionRecoversByteIdentical) {
  auto run = [](bool chaos) {
    LocalRuntimeConfig cfg;
    cfg.force_shuffle_kind = ShuffleKind::kRemote;
    if (chaos) {
      FaultSchedule fs;
      fs.seed = 7;
      fs.frame_corrupt_p = 1.0;  // mangle every slot's first read, capped
      fs.max_frame_corruptions = 8;
      cfg.fault_schedule = fs;
    }
    LocalRuntime rt(cfg);
    TpchConfig tpch;
    tpch.scale_factor = 0.002;
    EXPECT_TRUE(GenerateTpch(tpch, rt.catalog()).ok());
    // A split scan, so the ORDER BY stage reads shuffled frames.
    PlannerConfig pc;
    pc.rows_per_scan_task = 4000;
    auto report = rt.RunSql(
        "SELECT l_orderkey, l_linenumber, l_extendedprice, l_shipmode "
        "FROM tpch_lineitem ORDER BY l_orderkey, l_linenumber",
        pc);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *std::move(report) : JobRunReport{};
  };
  JobRunReport clean = run(false);
  JobRunReport chaotic = run(true);
  ASSERT_GT(clean.result.num_rows(), 0u);
  // Every mangled frame fails closed in serde and is re-fetched; the
  // answer is unchanged.
  EXPECT_EQ(SerializeBatch(chaotic.result), SerializeBatch(clean.result));
  EXPECT_GT(chaotic.stats.corrupt_read_retries, 0);
}

}  // namespace
}  // namespace swift
