#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/tpch.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "runtime/local_runtime.h"
#include "shuffle/cache_worker.h"
#include "shuffle/shuffle_service.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace {

// Pressure suite (ctest label `pressure_smoke`): the shuffle tier under
// memory and spill-disk pressure must throttle writers instead of
// failing or OOMing, keep one job from flushing another's hot slots,
// and survive injected spill-file IO faults without changing results.

ShuffleSlotKey Key(int src_task, int dst_task, JobId job = 1,
                   StageId src = 0, StageId dst = 1) {
  return ShuffleSlotKey{job, src, src_task, dst, dst_task};
}

std::string Payload(int writer, int seq, std::size_t size) {
  std::string s;
  s.reserve(size);
  const std::string stamp =
      "w" + std::to_string(writer) + "s" + std::to_string(seq) + ":";
  while (s.size() < size) s += stamp;
  s.resize(size);
  return s;
}

// --- Tentpole: writer→reader flow control -------------------------------

// 8 open-loop writers against one slow reader and a budget ~16x smaller
// than the offered data, spilling disabled. Flow control must (a) never
// deadlock, (b) keep peak resident bytes under the hard watermark plus
// one payload, and (c) deliver every byte unchanged.
TEST(ShufflePressureTest, EightWritersOneSlowReaderBoundedPeakNoDeadlock) {
  constexpr int kWriters = 8;
  constexpr int kSlotsPerWriter = 32;
  constexpr std::size_t kPayload = 2048;
  ShuffleService::Config sc;
  sc.machines = 1;
  sc.cache_memory_per_worker = 16 << 10;  // 512 KiB offered vs 16 KiB budget
  sc.retain_for_recovery = false;         // reads drain memory
  sc.put_retry_budget = 1 << 20;  // never force: the reader always drains
  sc.put_wait_ms = 0.5;
  ShuffleService service(sc);

  std::vector<std::thread> writers;
  std::atomic<int> write_errors{0};
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int s = 0; s < kSlotsPerWriter; ++s) {
        Status st = service.WritePartition(ShuffleKind::kRemote, Key(w, s),
                                           Payload(w, s, kPayload),
                                           /*writer_machine=*/0,
                                           /*pipelined=*/false);
        if (!st.ok()) write_errors.fetch_add(1);
      }
    });
  }

  // The slow reader drains whatever has landed, in arrival-agnostic
  // round-robin order — a reader pinned to one not-yet-written slot
  // would be waiting on a writer that waits on the reader.
  std::map<std::pair<int, int>, std::string> got;
  while (got.size() < static_cast<std::size_t>(kWriters * kSlotsPerWriter)) {
    for (int w = 0; w < kWriters; ++w) {
      for (int s = 0; s < kSlotsPerWriter; ++s) {
        if (got.count({w, s}) != 0) continue;
        auto r = service.ReadPartition(ShuffleKind::kRemote, Key(w, s),
                                       /*reader_machine=*/0,
                                       /*writer_machine=*/0);
        if (r.ok()) got[{w, s}] = std::string(r->view());
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));  // slow
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(write_errors.load(), 0);
  // Byte-identical to the unpressured run (the generator is the oracle).
  for (int w = 0; w < kWriters; ++w) {
    for (int s = 0; s < kSlotsPerWriter; ++s) {
      const std::string& payload = got[{w, s}];
      EXPECT_EQ(payload, Payload(w, s, kPayload)) << "w" << w << " s" << s;
    }
  }
  const CacheWorkerStats ws = service.worker_stats();
  // Admission is atomic under the worker lock: resident bytes never pass
  // the hard watermark by more than one payload (and only via reload /
  // forced overshoot, neither of which this test needs).
  EXPECT_LE(ws.peak_memory_in_use,
            sc.cache_memory_per_worker + static_cast<int64_t>(kPayload));
  EXPECT_EQ(ws.forced_admits, 0) << "a drained writer should never force";
  EXPECT_GT(ws.backpressure_rejections, 0) << "no pressure was exercised";
  EXPECT_GT(service.stats().put_backpressure_waits, 0);
  // Everything written was eventually consumed; rejected bytes stayed
  // outside the conservation law.
  EXPECT_EQ(ws.bytes_written, ws.bytes_consumed + ws.bytes_evicted_unconsumed);
  EXPECT_EQ(ws.bytes_written,
            static_cast<int64_t>(kWriters * kSlotsPerWriter * kPayload));
}

// --- Tentpole acceptance: 4x-budget workload, spilling disabled ---------

// The full runnable TPC-H suite forced through Remote shuffle with the
// per-worker budget sized to a quarter of the clean run's shuffle volume
// and no spill dir. Backpressure (with the forced-admission deadlock
// guard, since retained slots pin until RemoveJob) must carry every job
// to completion: no ResourceExhausted, results byte-identical.
TEST(ShufflePressureTest, RuntimeCompletesAt4xBudgetWithSpillDisabled) {
  const std::vector<int> queries = RunnableTpchQueries();
  ASSERT_FALSE(queries.empty());

  auto canonical = [](const Batch& b) {
    std::vector<std::string> rows;
    rows.reserve(b.rows.size());
    for (const Row& r : b.rows) {
      std::string s;
      for (const Value& v : r) {
        s += v.ToString();
        s += '|';
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  // Clean reference run; also measures the suite's shuffle volume.
  std::map<int, std::vector<std::string>> want;
  int64_t clean_bytes_written = 0;
  {
    LocalRuntimeConfig cfg;
    cfg.force_shuffle_kind = ShuffleKind::kRemote;
    LocalRuntime rt(cfg);
    TpchConfig tpch;
    tpch.scale_factor = 0.001;
    ASSERT_TRUE(GenerateTpch(tpch, rt.catalog()).ok());
    for (int q : queries) {
      auto sql = TpchQuerySql(q);
      ASSERT_TRUE(sql.ok());
      auto got = rt.ExecuteSql(*sql);
      ASSERT_TRUE(got.ok()) << "Q" << q << ": " << got.status().ToString();
      want[q] = canonical(*got);
    }
    clean_bytes_written = rt.shuffle_service()->worker_stats().bytes_written;
  }
  ASSERT_GT(clean_bytes_written, 0);

  // Pressured run: every worker gets ~1/4 of its clean-run share.
  LocalRuntimeConfig cfg;
  cfg.force_shuffle_kind = ShuffleKind::kRemote;
  cfg.cache_memory_per_worker =
      std::max<int64_t>(1 << 10, clean_bytes_written / (cfg.machines * 4));
  cfg.shuffle_put_retry_budget = 4;  // retained slots never drain mid-job:
  cfg.shuffle_put_wait_ms = 0.2;     // escalate to forced admission quickly
  LocalRuntime rt(cfg);
  TpchConfig tpch;
  tpch.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(tpch, rt.catalog()).ok());
  for (int q : queries) {
    SCOPED_TRACE("Q" + std::to_string(q));
    auto sql = TpchQuerySql(q);
    ASSERT_TRUE(sql.ok());
    auto got = rt.ExecuteSql(*sql);
    ASSERT_TRUE(got.ok()) << "backpressure must not fail the job: "
                          << got.status().ToString();
    EXPECT_EQ(canonical(*got), want[q]) << "results diverged under pressure";
  }
  const CacheWorkerStats ws = rt.shuffle_service()->worker_stats();
  EXPECT_GT(ws.backpressure_rejections, 0) << "budget was never under pressure";
  EXPECT_GT(ws.forced_admits, 0)
      << "pinned-slot pressure should exercise the deadlock guard";
}

// --- Spill-path fault tolerance -----------------------------------------

std::string TempDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CacheWorkerOptions TinyWorker(const char* dirname) {
  CacheWorkerOptions o;
  o.memory_budget_bytes = 64;
  o.spill_dir = TempDir(dirname);
  return o;
}

TEST(ShufflePressureTest, TransientSpillReadFaultsRetryInPlace) {
  FaultSchedule fs;
  fs.seed = 21;
  fs.spill_read_fail_p = 1.0;
  fs.spill_read_fails_per_victim = 2;  // < spill_io_retries: transient
  fs.max_spill_read_faults = 1 << 10;
  FaultInjector injector(fs);
  CacheWorker cw(TinyWorker("swift_pressure_transient_read"));
  cw.set_fault_injector(&injector);

  const std::string a(40, 'a'), b(40, 'b');
  ASSERT_TRUE(cw.Put(Key(0, 0), a, 0).ok());
  ASSERT_TRUE(cw.Put(Key(1, 0), b, 0).ok());  // spills the first slot
  ASSERT_GE(cw.stats().spilled_slots, 1);
  auto r = cw.Peek(Key(0, 0));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->view(), a);
  const CacheWorkerStats s = cw.stats();
  EXPECT_GE(s.spill_io_errors, 2);
  EXPECT_GE(s.spill_io_retries, 2);
  EXPECT_EQ(s.spill_lost_slots, 0);
  EXPECT_GE(injector.stats().spill_read_faults, 2);
}

TEST(ShufflePressureTest, PermanentSpillReadLossDropsSlotForRecovery) {
  FaultSchedule fs;
  fs.seed = 22;
  fs.spill_read_fail_p = 1.0;
  fs.spill_read_fails_per_victim = 1 << 10;  // beyond any retry budget
  fs.max_spill_read_faults = 1 << 10;
  FaultInjector injector(fs);
  CacheWorker cw(TinyWorker("swift_pressure_permanent_read"));
  cw.set_fault_injector(&injector);

  ASSERT_TRUE(cw.Put(Key(0, 0), std::string(40, 'a'), 0).ok());
  ASSERT_TRUE(cw.Put(Key(1, 0), std::string(40, 'b'), 0).ok());
  ASSERT_GE(cw.stats().spilled_slots, 1);
  // The spilled slot is permanently unreadable: the error surfaces as
  // IOError once, then the slot is gone so the service's re-probe sees
  // NotFound and escalates to replica failover / producer re-run.
  auto r = cw.Peek(Key(0, 0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(cw.Contains(Key(0, 0)));
  EXPECT_EQ(cw.Get(Key(0, 0)).status().code(), StatusCode::kNotFound);
  const CacheWorkerStats s = cw.stats();
  EXPECT_EQ(s.spill_lost_slots, 1);
  // Conservation holds: the lost slot was never read, so its bytes land
  // in evicted_unconsumed — once the surviving slot is removed too, all
  // written bytes are accounted for.
  EXPECT_GE(s.bytes_evicted_unconsumed, 40);
  cw.Clear();
  const CacheWorkerStats end = cw.stats();
  EXPECT_EQ(end.bytes_written,
            end.bytes_consumed + end.bytes_evicted_unconsumed);
}

TEST(ShufflePressureTest, TransientSpillWriteFaultsRetryInPlace) {
  FaultSchedule fs;
  fs.seed = 23;
  fs.spill_write_fail_p = 1.0;
  fs.spill_write_fails_per_victim = 1;  // first attempt fails, retry lands
  fs.max_spill_write_faults = 1 << 10;
  FaultInjector injector(fs);
  CacheWorker cw(TinyWorker("swift_pressure_transient_write"));
  cw.set_fault_injector(&injector);

  const std::string a(40, 'a'), b(40, 'b');
  ASSERT_TRUE(cw.Put(Key(0, 0), a, 0).ok());
  ASSERT_TRUE(cw.Put(Key(1, 0), b, 0).ok());  // spill write fails once
  const CacheWorkerStats s = cw.stats();
  EXPECT_GE(s.spilled_slots, 1);
  EXPECT_GE(s.spill_io_errors, 1);
  EXPECT_GE(s.spill_io_retries, 1);
  EXPECT_EQ(cw.Peek(Key(0, 0))->view(), a);  // CRC-verified reload
  EXPECT_GE(injector.stats().spill_write_faults, 1);
}

TEST(ShufflePressureTest, CorruptSpillFileFailsCrcAndDropsSlot) {
  CacheWorker cw(TinyWorker("swift_pressure_crc"));
  const std::string a(40, 'a');
  ASSERT_TRUE(cw.Put(Key(0, 0), a, 0).ok());
  ASSERT_TRUE(cw.Put(Key(1, 0), std::string(40, 'b'), 0).ok());  // spills a
  ASSERT_GE(cw.stats().spilled_slots, 1);
  // Rot every spill file on disk (flip one payload bit).
  int flipped = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(cw.spill_path())) {
    std::fstream f(e.path(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(10);
    f.put('x');
    ++flipped;
  }
  ASSERT_GE(flipped, 1);
  auto r = cw.Peek(Key(0, 0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("CRC"), std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(cw.Contains(Key(0, 0)));
  EXPECT_EQ(cw.stats().spill_lost_slots, 1);
}

TEST(ShufflePressureTest, InjectedDiskFullDegradesToBackpressure) {
  FaultSchedule fs;
  fs.seed = 24;
  fs.spill_disk_full_after_bytes = 0;  // the spill dir is born full
  FaultInjector injector(fs);
  CacheWorker cw(TinyWorker("swift_pressure_diskfull"));
  cw.set_fault_injector(&injector);

  ASSERT_TRUE(cw.Put(Key(0, 0), std::string(40, 'a'), 0).ok());
  // The next put needs a spill, the disk refuses, the put backpressures
  // (refuse-new-puts degradation) — and the forced path still works.
  Status st = cw.Put(Key(1, 0), std::string(40, 'b'), 0);
  EXPECT_TRUE(st.IsBackpressure()) << st.ToString();
  EXPECT_GE(injector.stats().disk_full_faults, 1);
  ASSERT_TRUE(cw.Put(Key(1, 0), std::string(40, 'b'), 0, /*force=*/true).ok());
  EXPECT_EQ(cw.Peek(Key(0, 0))->view(), std::string(40, 'a'));
  EXPECT_EQ(cw.Peek(Key(1, 0))->view(), std::string(40, 'b'));
}

// Runtime-level: injected spill-read faults (some permanent) under a
// budget tiny enough that most shuffle reads reload from disk. Transient
// faults retry in place; permanent losses drop the slot and recovery
// re-runs the producer — results must stay byte-identical throughout.
TEST(ShufflePressureTest, RuntimeByteIdenticalUnderSpillFaults) {
  const std::vector<int> queries = RunnableTpchQueries();
  ASSERT_FALSE(queries.empty());

  auto canonical = [](const Batch& b) {
    std::vector<std::string> rows;
    rows.reserve(b.rows.size());
    for (const Row& r : b.rows) {
      std::string s;
      for (const Value& v : r) {
        s += v.ToString();
        s += '|';
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  std::map<int, std::vector<std::string>> want;
  {
    LocalRuntime rt{LocalRuntimeConfig{}};
    TpchConfig tpch;
    tpch.scale_factor = 0.001;
    ASSERT_TRUE(GenerateTpch(tpch, rt.catalog()).ok());
    for (int q : queries) {
      auto sql = TpchQuerySql(q);
      ASSERT_TRUE(sql.ok());
      auto got = rt.ExecuteSql(*sql);
      ASSERT_TRUE(got.ok());
      want[q] = canonical(*got);
    }
  }

  FaultSchedule fs;
  fs.seed = 25;
  fs.spill_read_fail_p = 0.6;
  fs.spill_read_fails_per_victim = 1 << 10;  // every victim is permanent
  fs.max_spill_read_faults = 8;  // ... until the global cap converges it
  LocalRuntimeConfig cfg;
  cfg.force_shuffle_kind = ShuffleKind::kRemote;
  cfg.cache_memory_per_worker = 2 << 10;  // nearly everything spills
  cfg.spill_root = TempDir("swift_pressure_runtime_spill");
  cfg.fault_schedule = fs;
  LocalRuntime rt(cfg);
  TpchConfig tpch;
  tpch.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(tpch, rt.catalog()).ok());
  for (int q : queries) {
    SCOPED_TRACE("Q" + std::to_string(q));
    auto sql = TpchQuerySql(q);
    ASSERT_TRUE(sql.ok());
    auto got = rt.ExecuteSql(*sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(canonical(*got), want[q])
        << "results diverged under spill faults";
  }
  const CacheWorkerStats ws = rt.shuffle_service()->worker_stats();
  EXPECT_GE(ws.spilled_slots, 1) << "budget never forced a spill";
  EXPECT_GE(ws.spill_lost_slots, 1)
      << "no permanent loss escalated to recovery";
  ASSERT_NE(rt.fault_injector(), nullptr);
  EXPECT_GE(rt.fault_injector()->stats().spill_read_faults, 1)
      << "no spill fault was injected";
}

}  // namespace
}  // namespace swift
