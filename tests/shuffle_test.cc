#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "shuffle/cache_worker.h"
#include "shuffle/shuffle_buffer.h"
#include "shuffle/shuffle_mode.h"
#include "shuffle/shuffle_service.h"

namespace swift {
namespace {

TEST(ShuffleModeTest, AdaptiveSelectionMatchesPaperThresholds) {
  // Sec. III-B: Direct < 10,000; Remote in [10,000, 90,000); Local above.
  EXPECT_EQ(SelectShuffleKind(1), ShuffleKind::kDirect);
  EXPECT_EQ(SelectShuffleKind(9999), ShuffleKind::kDirect);
  EXPECT_EQ(SelectShuffleKind(10000), ShuffleKind::kRemote);
  EXPECT_EQ(SelectShuffleKind(89999), ShuffleKind::kRemote);
  EXPECT_EQ(SelectShuffleKind(90000), ShuffleKind::kLocal);
  EXPECT_EQ(SelectShuffleKind(1000000), ShuffleKind::kLocal);
}

TEST(ShuffleModeTest, ConnectionFormulasMatchPaper) {
  // M=250, N=250, Y=10: Direct M*N, Local M+N+C(Y,2), Remote M+N*Y.
  EXPECT_EQ(DirectShuffleConnections(250, 250), 62500);
  EXPECT_EQ(LocalShuffleConnections(250, 250, 10), 250 + 250 + 45);
  EXPECT_EQ(RemoteShuffleConnections(250, 250, 10), 250 + 2500);
  // Ordering claimed by the paper for large jobs: local < remote < direct.
  EXPECT_LT(LocalShuffleConnections(1000, 1000, 20),
            RemoteShuffleConnections(1000, 1000, 20));
  EXPECT_LT(RemoteShuffleConnections(1000, 1000, 20),
            DirectShuffleConnections(1000, 1000));
}

TEST(ShuffleModeTest, MemoryCopyCounts) {
  EXPECT_EQ(ExtraMemoryCopies(ShuffleKind::kDirect), 0);
  EXPECT_EQ(ExtraMemoryCopies(ShuffleKind::kRemote), 1);
  EXPECT_EQ(ExtraMemoryCopies(ShuffleKind::kLocal), 2);
}

ShuffleSlotKey Key(int src_task, int dst_task, JobId job = 1,
                   StageId src = 0, StageId dst = 1) {
  return ShuffleSlotKey{job, src, src_task, dst, dst_task};
}

// A Cache Worker's options with the given budget and spill directory
// ("" disables spilling).
CacheWorkerOptions Budget(int64_t bytes, std::string spill_dir = "") {
  CacheWorkerOptions o;
  o.memory_budget_bytes = bytes;
  o.spill_dir = std::move(spill_dir);
  return o;
}

TEST(CacheWorkerTest, PutGetRoundTrip) {
  CacheWorker cw(Budget(1 << 20));
  ASSERT_TRUE(cw.Put(Key(0, 0), "hello", 1).ok());
  EXPECT_TRUE(cw.Contains(Key(0, 0)));
  auto r = cw.Get(Key(0, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->view(), "hello");
  // Consumed after the expected single read.
  EXPECT_FALSE(cw.Contains(Key(0, 0)));
  EXPECT_EQ(cw.Get(Key(0, 0)).status().code(), StatusCode::kNotFound);
}

TEST(CacheWorkerTest, PinnedSlotsSurviveReads) {
  CacheWorker cw(Budget(1 << 20));
  ASSERT_TRUE(cw.Put(Key(0, 0), "data", /*expected_reads=*/0).ok());
  for (int i = 0; i < 3; ++i) {
    auto r = cw.Get(Key(0, 0));
    ASSERT_TRUE(r.ok());
  }
  EXPECT_TRUE(cw.Contains(Key(0, 0)));
  cw.RemoveJob(1);
  EXPECT_FALSE(cw.Contains(Key(0, 0)));
}

TEST(CacheWorkerTest, PeekDoesNotConsume) {
  CacheWorker cw(Budget(1 << 20));
  ASSERT_TRUE(cw.Put(Key(0, 0), "data", 1).ok());
  ASSERT_TRUE(cw.Peek(Key(0, 0)).ok());
  EXPECT_TRUE(cw.Contains(Key(0, 0)));
}

TEST(CacheWorkerTest, MultiReaderConsumption) {
  CacheWorker cw(Budget(1 << 20));
  ASSERT_TRUE(cw.Put(Key(0, 0), "data", 3).ok());
  ASSERT_TRUE(cw.Get(Key(0, 0)).ok());
  ASSERT_TRUE(cw.Get(Key(0, 0)).ok());
  EXPECT_TRUE(cw.Contains(Key(0, 0)));
  ASSERT_TRUE(cw.Get(Key(0, 0)).ok());
  EXPECT_FALSE(cw.Contains(Key(0, 0)));
  EXPECT_EQ(cw.stats().deletions, 1);
}

TEST(CacheWorkerTest, OverwriteReplacesSlot) {
  CacheWorker cw(Budget(1 << 20));
  ASSERT_TRUE(cw.Put(Key(0, 0), "old", 0).ok());
  ASSERT_TRUE(cw.Put(Key(0, 0), "new", 0).ok());
  auto r = cw.Peek(Key(0, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->view(), "new");
}

TEST(CacheWorkerTest, OverBudgetWithoutSpillBackpressuresNotFails) {
  // Regression for the pre-flow-control sharp edge: an over-budget Put
  // with spilling disabled used to fail hard with ResourceExhausted.
  // It now returns the retryable kBackpressure signal, nothing is
  // stored, and a forced put (the deadlock guard) still goes through.
  CacheWorker cw(Budget(10));
  Status st = cw.Put(Key(0, 0), "0123456789ABCDEF", 1);
  EXPECT_TRUE(st.IsBackpressure()) << st.ToString();
  EXPECT_NE(st.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(cw.Contains(Key(0, 0)));
  auto stats = cw.stats();
  EXPECT_EQ(stats.backpressure_rejections, 1);
  EXPECT_EQ(stats.bytes_rejected, 16);
  EXPECT_EQ(stats.bytes_written, 0);  // rejected bytes stay unaccounted
  ASSERT_TRUE(cw.Put(Key(0, 0), "0123456789ABCDEF", 1, /*force=*/true).ok());
  EXPECT_TRUE(cw.Contains(Key(0, 0)));
  EXPECT_EQ(cw.stats().forced_admits, 1);
}

TEST(CacheWorkerTest, WaitForCapacityUnblocksOnDrain) {
  CacheWorker cw(Budget(32));
  ASSERT_TRUE(cw.Put(Key(0, 0), std::string(30, 'x'), 1).ok());
  EXPECT_TRUE(cw.Put(Key(1, 0), std::string(30, 'y'), 1).IsBackpressure());
  EXPECT_FALSE(cw.WaitForCapacity(30, 1.0));       // nothing drains: times out
  EXPECT_FALSE(cw.WaitForCapacity(1000, 1000.0));  // can never fit: immediate
  std::thread reader([&] { ASSERT_TRUE(cw.Get(Key(0, 0)).ok()); });
  EXPECT_TRUE(cw.WaitForCapacity(30, 5000.0));
  reader.join();
  ASSERT_TRUE(cw.Put(Key(1, 0), std::string(30, 'y'), 1).ok());
}

TEST(CacheWorkerTest, QuotaEvictionPrefersOverQuotaJobs) {
  const std::string dir = ::testing::TempDir() + "/swift_quota_test";
  std::filesystem::remove_all(dir);
  // Budget 100: spill runs ahead from 75 resident bytes
  // (kCacheSoftWatermark) and a job over 50 (kCachePerJobQuota) is over
  // quota.
  CacheWorker cw(Budget(100, dir));
  // Job 2's slot is the global LRU; job 1 then goes over quota while
  // everything still fits under the soft watermark (65 resident).
  ASSERT_TRUE(cw.Put(Key(0, 0, /*job=*/2), std::string(10, 'b'), 0).ok());
  ASSERT_TRUE(cw.Put(Key(0, 0, /*job=*/1), std::string(30, 'a'), 0).ok());
  ASSERT_TRUE(cw.Put(Key(1, 0, /*job=*/1), std::string(25, 'a'), 0).ok());
  EXPECT_EQ(cw.stats().spilled_slots, 0);
  // 65 resident; +20 crosses the soft watermark. Plain LRU would spill
  // job 2's slot, but job 1 is over its 50-byte quota and job 2 is not:
  // the victim must come from job 1 (LRU within the job).
  ASSERT_TRUE(cw.Put(Key(2, 0, /*job=*/1), std::string(20, 'a'), 0).ok());
  auto stats = cw.stats();
  EXPECT_GE(stats.quota_evictions, 1);
  EXPECT_GE(stats.spilled_slots, 1);
  // Job 2's hot slot stayed resident (reading it reloads nothing).
  ASSERT_TRUE(cw.Peek(Key(0, 0, /*job=*/2)).ok());
  EXPECT_EQ(cw.stats().reloads, 0);
  // RemoveJob reclaims the heavy job's quota charge atomically.
  cw.RemoveJob(1);
  EXPECT_LE(cw.stats().memory_in_use, 10);
}

TEST(CacheWorkerTest, SpillDiskBudgetExhaustionDegradesToBackpressure) {
  const std::string dir = ::testing::TempDir() + "/swift_diskfull_test";
  std::filesystem::remove_all(dir);
  CacheWorkerOptions o;
  o.memory_budget_bytes = 64;
  o.spill_dir = dir;
  o.spill_disk_budget_bytes = 50;  // room for one 40-byte slot + footer
  CacheWorker cw(std::move(o));
  ASSERT_TRUE(cw.Put(Key(0, 0), std::string(40, 'a'), 0).ok());
  ASSERT_TRUE(cw.Put(Key(1, 0), std::string(40, 'b'), 0).ok());  // spills a
  // The disk budget is now spent: the next over-watermark put cannot
  // spill and must backpressure instead of growing or crashing.
  Status st = cw.Put(Key(2, 0), std::string(40, 'c'), 0);
  EXPECT_TRUE(st.IsBackpressure()) << st.ToString();
  EXPECT_LE(cw.stats().spill_disk_in_use, 50);
  // Both stored slots are still intact.
  EXPECT_EQ(cw.Peek(Key(0, 0))->view(), std::string(40, 'a'));
  EXPECT_EQ(cw.Peek(Key(1, 0))->view(), std::string(40, 'b'));
}

TEST(CacheWorkerTest, LruSpillAndReload) {
  const std::string dir = ::testing::TempDir() + "/swift_spill_test";
  std::filesystem::remove_all(dir);
  CacheWorker cw(Budget(64, dir));  // tiny budget forces spills
  const std::string a(40, 'a');
  const std::string b(40, 'b');
  const std::string c(40, 'c');
  ASSERT_TRUE(cw.Put(Key(0, 0), a, 0).ok());
  ASSERT_TRUE(cw.Put(Key(1, 0), b, 0).ok());  // spills key(0,0)
  ASSERT_TRUE(cw.Put(Key(2, 0), c, 0).ok());  // spills key(1,0)
  auto stats = cw.stats();
  EXPECT_GE(stats.spilled_slots, 2);
  EXPECT_LE(stats.memory_in_use, 64);
  // All three are still readable (spilled ones reload from disk).
  auto ra = cw.Peek(Key(0, 0));
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra->view(), a);
  auto rb = cw.Peek(Key(1, 0));
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->view(), b);
  auto rc = cw.Peek(Key(2, 0));
  ASSERT_TRUE(rc.ok());
  EXPECT_EQ(rc->view(), c);
  EXPECT_GE(cw.stats().reloads, 2);
  std::filesystem::remove_all(dir);
}

// Two workers on one spill_dir (two runtimes sharing a spill root) must
// never read, overwrite or delete each other's spill files. Equal-size
// payloads would even pass each other's CRC footer, so the only safe
// layout is a private directory per worker.
TEST(CacheWorkerTest, SharedSpillDirKeepsWorkersApart) {
  const std::string dir = ::testing::TempDir() + "/swift_shared_spill_test";
  std::filesystem::remove_all(dir);
  {
    CacheWorker w1(Budget(64, dir));
    CacheWorker w2(Budget(64, dir));
    const std::string a1(40, 'a'), b1(40, 'b');
    const std::string a2(40, 'x'), b2(40, 'y');
    ASSERT_TRUE(w1.Put(Key(0, 0), a1, 0).ok());
    ASSERT_TRUE(w1.Put(Key(1, 0), b1, 0).ok());  // spills w1's key(0,0)
    ASSERT_TRUE(w2.Put(Key(0, 0), a2, 0).ok());
    ASSERT_TRUE(w2.Put(Key(1, 0), b2, 0).ok());  // spills w2's key(0,0)
    ASSERT_GE(w1.stats().spilled_slots, 1);
    ASSERT_GE(w2.stats().spilled_slots, 1);
    EXPECT_NE(w1.spill_path(), w2.spill_path());
    auto r1 = w1.Peek(Key(0, 0));
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    EXPECT_EQ(r1->view(), a1);
    auto r2 = w2.Peek(Key(0, 0));
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_EQ(r2->view(), a2);
  }
  // Destruction leaves nothing behind in the shared directory.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(CacheWorkerTest, RemoveStageOutputIsSelective) {
  CacheWorker cw(Budget(1 << 20));
  ASSERT_TRUE(cw.Put(ShuffleSlotKey{1, 0, 0, 1, 0}, "a", 0).ok());
  ASSERT_TRUE(cw.Put(ShuffleSlotKey{1, 2, 0, 3, 0}, "b", 0).ok());
  cw.RemoveStageOutput(1, 0);
  EXPECT_FALSE(cw.Contains(ShuffleSlotKey{1, 0, 0, 1, 0}));
  EXPECT_TRUE(cw.Contains(ShuffleSlotKey{1, 2, 0, 3, 0}));
}

ShuffleService::Config ServiceConfig() {
  ShuffleService::Config c;
  c.machines = 4;
  c.cache_memory_per_worker = 1 << 20;
  c.retain_for_recovery = false;
  return c;
}

TEST(ShuffleServiceTest, RoutesAllKinds) {
  for (ShuffleKind kind :
       {ShuffleKind::kDirect, ShuffleKind::kLocal, ShuffleKind::kRemote}) {
    ShuffleService svc(ServiceConfig());
    ShuffleSlotKey key{7, 0, 2, 1, 3};
    ASSERT_TRUE(svc.WritePartition(kind, key, "payload", 1, true).ok());
    EXPECT_TRUE(svc.HasPartition(kind, key, 1));
    auto r = svc.ReadPartition(kind, key, 2, 1);
    ASSERT_TRUE(r.ok()) << ShuffleKindToString(kind);
    EXPECT_EQ(r->view(), "payload");
    // Consumed (retain_for_recovery = false).
    EXPECT_FALSE(svc.HasPartition(kind, key, 1));
  }
}

TEST(ShuffleServiceTest, RetainForRecoveryKeepsData) {
  auto cfg = ServiceConfig();
  cfg.retain_for_recovery = true;
  ShuffleService svc(cfg);
  ShuffleSlotKey key{7, 0, 0, 1, 0};
  ASSERT_TRUE(
      svc.WritePartition(ShuffleKind::kRemote, key, "x", 0, false).ok());
  ASSERT_TRUE(svc.ReadPartition(ShuffleKind::kRemote, key, 1, 0).ok());
  EXPECT_TRUE(svc.HasPartition(ShuffleKind::kRemote, key, 0));
  svc.RemoveJob(7);
  EXPECT_FALSE(svc.HasPartition(ShuffleKind::kRemote, key, 0));
}

TEST(ShuffleServiceTest, ConnectionAccountingDirectVsWorkerModes) {
  // 4 producers x 4 consumers on 2 machines.
  auto RunKind = [&](ShuffleKind kind) {
    auto cfg = ServiceConfig();
    cfg.machines = 2;
    ShuffleService svc(cfg);
    for (int s = 0; s < 4; ++s) {
      for (int d = 0; d < 4; ++d) {
        ShuffleSlotKey key{1, 0, s, 1, d};
        EXPECT_TRUE(svc.WritePartition(kind, key, "x", s % 2, true).ok());
        EXPECT_TRUE(svc.ReadPartition(kind, key, d % 2, s % 2).ok());
      }
    }
    return svc.stats().tcp_connections;
  };
  const int64_t direct = RunKind(ShuffleKind::kDirect);
  const int64_t local = RunKind(ShuffleKind::kLocal);
  const int64_t remote = RunKind(ShuffleKind::kRemote);
  EXPECT_EQ(direct, 16);  // M*N
  // Local: 4 writers + 4 readers + C(2,2)=1 worker-worker = 9.
  EXPECT_EQ(local, 9);
  // Remote: 4 writers + 4 readers x 2 machines = 12.
  EXPECT_EQ(remote, 12);
  EXPECT_LT(local, remote);
  EXPECT_LT(remote, direct);
}

TEST(ShuffleServiceTest, ForceKindOverridesAdaptive) {
  auto cfg = ServiceConfig();
  cfg.force_kind = ShuffleKind::kLocal;
  ShuffleService svc(cfg);
  EXPECT_EQ(svc.KindFor(5), ShuffleKind::kLocal);
  EXPECT_EQ(svc.KindFor(1000000), ShuffleKind::kLocal);
}

TEST(ShuffleServiceTest, MissingPartitionIsNotFound) {
  ShuffleService svc(ServiceConfig());
  ShuffleSlotKey key{1, 0, 0, 1, 0};
  EXPECT_EQ(svc.ReadPartition(ShuffleKind::kDirect, key, 0, 0)
                .status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(svc.ReadPartition(ShuffleKind::kLocal, key, 0, 0)
                .status().code(),
            StatusCode::kNotFound);
}

TEST(ShuffleBufferTest, SharesOneAllocationAcrossHandles) {
  ShuffleBuffer a(std::string("0123456789"));
  EXPECT_EQ(a.use_count(), 1);
  ShuffleBuffer b = a;            // handle copy, same allocation
  ShuffleBuffer c = a.Slice(2, 5);
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_EQ(b.view(), "0123456789");
  EXPECT_EQ(c.view(), "23456");
  EXPECT_EQ(c.size(), 5u);
  // Views point into the same bytes, not copies of them.
  EXPECT_EQ(c.view().data(), a.view().data() + 2);
  ShuffleBuffer empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(empty.view(), "");
}

TEST(ShuffleBufferTest, SliceClampsToBounds) {
  ShuffleBuffer a(std::string("abcdef"));
  EXPECT_EQ(a.Slice(4, 100).view(), "ef");
  EXPECT_EQ(a.Slice(100, 5).view(), "");
  EXPECT_EQ(a.Slice(2, 2).Slice(1, 5).view(), "d");
}

// Satellite: 8 threads hammer Put/Get/Peek on one worker under a budget
// tight enough that slots constantly spill and reload. Every payload
// must come back byte-exact (no slot served corrupt after reload) and
// memory_in_use must return to 0 once everything is consumed.
TEST(CacheWorkerTest, ConcurrentPutGetPeekUnderTightBudget) {
  const std::string dir = ::testing::TempDir() + "/swift_conc_spill";
  std::filesystem::remove_all(dir);
  constexpr int kThreads = 8;
  constexpr int kSlotsPerThread = 64;
  auto PayloadFor = [](int t, int s) {
    return std::string(
        static_cast<std::size_t>(1 + (t * 131 + s * 17) % 509),
        static_cast<char>('a' + (t * 7 + s) % 26));
  };
  {
    CacheWorker cw(Budget(4096, dir));  // ~130 KB of slots vs a 4 KB budget
    std::atomic<int> corrupt{0};
    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int s = 0; s < kSlotsPerThread; ++s) {
          ShuffleSlotKey key{1, 0, t, 1, s};
          if (!cw.Put(key, PayloadFor(t, s), /*expected_reads=*/1).ok()) {
            errors.fetch_add(1);
          }
        }
        // Peek everything (reload from spill, no consumption)...
        for (int s = 0; s < kSlotsPerThread; ++s) {
          ShuffleSlotKey key{1, 0, t, 1, s};
          auto r = cw.Peek(key);
          if (!r.ok()) {
            errors.fetch_add(1);
          } else if (r->view() != PayloadFor(t, s)) {
            corrupt.fetch_add(1);
          }
        }
        // ...then consume every slot this thread owns.
        for (int s = 0; s < kSlotsPerThread; ++s) {
          ShuffleSlotKey key{1, 0, t, 1, s};
          auto r = cw.Get(key);
          if (!r.ok()) {
            errors.fetch_add(1);
          } else if (r->view() != PayloadFor(t, s)) {
            corrupt.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(corrupt.load(), 0);
    EXPECT_EQ(errors.load(), 0);
    auto stats = cw.stats();
    EXPECT_EQ(stats.memory_in_use, 0);
    EXPECT_EQ(stats.deletions, kThreads * kSlotsPerThread);
    EXPECT_GT(stats.spilled_slots, 0);
    EXPECT_GT(stats.reloads, 0);
  }
  std::filesystem::remove_all(dir);
}

TEST(ShuffleServiceTest, ZeroCopyPlanePerformsNoPayloadCopies) {
  auto cfg = ServiceConfig();
  cfg.retain_for_recovery = true;  // every read is a Peek re-send
  ShuffleService svc(cfg);
  const std::string payload(1 << 16, 'z');
  ShuffleSlotKey key{3, 0, 0, 1, 0};
  ASSERT_TRUE(svc.WritePartition(ShuffleKind::kLocal, key,
                                 ShuffleBuffer(std::string(payload)), 0, true)
                  .ok());
  // Three reads from another machine: first replicates, rest hit the
  // reader-side replica; all share the writer's single allocation.
  for (int i = 0; i < 3; ++i) {
    auto r = svc.ReadPartition(ShuffleKind::kLocal, key, 1, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->view(), payload);
    // Writer-side slot + reader-side replica + this handle.
    EXPECT_GE(r->use_count(), 3);
  }
  EXPECT_TRUE(svc.worker(1)->Contains(key));
  auto stats = svc.stats();
  EXPECT_EQ(stats.local_replicas, 1);
  EXPECT_EQ(stats.modeled_memory_copies, ExtraMemoryCopies(ShuffleKind::kLocal));
}

TEST(ShuffleServiceTest, ModeledCopyAccountingMatchesPaper) {
  ShuffleService svc(ServiceConfig());
  int t = 0;
  for (ShuffleKind kind :
       {ShuffleKind::kDirect, ShuffleKind::kLocal, ShuffleKind::kRemote}) {
    ShuffleSlotKey key{9, 0, t++, 1, 0};
    ASSERT_TRUE(svc.WritePartition(kind, key, std::string("x"), 0, true).ok());
  }
  // Sec. III-B: Direct +0, Local +2, Remote +1 modeled copies.
  EXPECT_EQ(svc.stats().modeled_memory_copies, 3);
}

}  // namespace
}  // namespace swift
