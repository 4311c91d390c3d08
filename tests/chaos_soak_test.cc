#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/tpch.h"
#include "obs/metrics.h"
#include "runtime/local_runtime.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace {

// Chaos soak (ctest label `chaos_smoke`): the runnable TPC-H suite
// executed under a matrix of seeded fault schedules — task crashes,
// flaky links, payload bit-flips, a mid-wave machine loss, and all of
// them combined. Every run must return byte-identical results to the
// clean run with a bounded number of task re-runs; across the matrix
// the paper's kInputFailure and kOutputFailure scenarios and the
// retry-in-place transient-read path must each fire at least once.

std::vector<std::string> Canonical(const Batch& b) {
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
}

std::unique_ptr<LocalRuntime> MakeRuntime(LocalRuntimeConfig cfg = {}) {
  auto rt = std::make_unique<LocalRuntime>(cfg);
  TpchConfig tpch;
  tpch.scale_factor = 0.001;
  EXPECT_TRUE(GenerateTpch(tpch, rt->catalog()).ok());
  return rt;
}

struct ChaosSchedule {
  const char* name;
  FaultSchedule fs;
  /// Spill-path schedules shrink the Cache Worker budget and enable a
  /// spill dir so the injected faults have spill files to hit; Remote
  /// shuffle is forced because sf-0.001 edges are otherwise Direct.
  int64_t cache_budget = 0;  ///< 0 = default
  bool spill = false;
};

LocalRuntimeConfig ApplySchedule(const ChaosSchedule& sched) {
  LocalRuntimeConfig cfg;
  cfg.fault_schedule = sched.fs;
  if (sched.cache_budget > 0) cfg.cache_memory_per_worker = sched.cache_budget;
  if (sched.spill) {
    cfg.spill_root =
        ::testing::TempDir() + "/swift_chaos_spill_" + sched.name;
    cfg.force_shuffle_kind = ShuffleKind::kRemote;
  }
  return cfg;
}

std::vector<ChaosSchedule> Schedules() {
  std::vector<ChaosSchedule> out;
  {
    FaultSchedule fs;
    fs.seed = 11;
    fs.task_crash_p = 0.25;
    fs.max_task_crashes = 16;
    out.push_back({"task-crashes", fs});
  }
  {
    FaultSchedule fs;
    fs.seed = 12;
    fs.task_crash_p = 0.2;
    fs.task_crash_kind = FailureKind::kNetworkTimeout;
    fs.max_task_crashes = 16;
    out.push_back({"network-timeouts", fs});
  }
  {
    FaultSchedule fs;
    fs.seed = 13;
    fs.read_timeout_p = 0.5;
    fs.timeouts_per_victim = 2;
    fs.max_read_timeouts = 1 << 20;
    out.push_back({"flaky-links", fs});
  }
  {
    FaultSchedule fs;
    fs.seed = 14;
    fs.corrupt_p = 0.5;
    fs.max_corruptions = 16;
    out.push_back({"bit-corruption", fs});
  }
  {
    FaultSchedule fs;
    fs.seed = 15;
    fs.kill_machine = 1;
    fs.kill_after_task_starts = 3;  // mid-wave, first job of the suite
    out.push_back({"machine-loss", fs});
  }
  {
    FaultSchedule fs;
    fs.seed = 16;
    fs.task_crash_p = 0.12;
    fs.max_task_crashes = 8;
    fs.read_timeout_p = 0.2;
    fs.max_read_timeouts = 1 << 20;
    fs.corrupt_p = 0.15;
    fs.max_corruptions = 8;
    fs.kill_machine = 2;
    fs.kill_after_task_starts = 7;
    out.push_back({"combined", fs});
  }
  {
    // Transient spill-write errors: each victim's first write attempt
    // fails, the in-place retry lands it.
    FaultSchedule fs;
    fs.seed = 17;
    fs.spill_write_fail_p = 0.5;
    fs.spill_write_fails_per_victim = 1;
    fs.max_spill_write_faults = 1 << 10;
    out.push_back({"spill-write-faults", fs, /*cache_budget=*/2 << 10,
                   /*spill=*/true});
  }
  {
    // Transient spill-read errors/short reads, under the retry budget.
    FaultSchedule fs;
    fs.seed = 18;
    fs.spill_read_fail_p = 0.5;
    fs.spill_read_fails_per_victim = 2;
    fs.max_spill_read_faults = 1 << 10;
    out.push_back({"spill-read-faults", fs, /*cache_budget=*/2 << 10,
                   /*spill=*/true});
  }
  {
    // Permanent spill loss (victims never read back) combined with a
    // mid-wave machine loss: both escalation paths at once. The global
    // fault cap bounds the chaos so recovery converges.
    FaultSchedule fs;
    fs.seed = 19;
    fs.spill_read_fail_p = 0.5;
    fs.spill_read_fails_per_victim = 1 << 10;
    fs.max_spill_read_faults = 6;
    fs.kill_machine = 1;
    fs.kill_after_task_starts = 5;
    out.push_back({"spill-loss+machine-loss", fs, /*cache_budget=*/2 << 10,
                   /*spill=*/true});
  }
  return out;
}

TEST(ChaosSoak, TpchSuiteByteIdenticalUnderFaultMatrix) {
  const std::vector<int> queries = RunnableTpchQueries();
  ASSERT_FALSE(queries.empty());

  // Clean reference run: one fault-free runtime over the whole suite.
  std::map<int, std::vector<std::string>> want;
  {
    auto rt = MakeRuntime();
    for (int q : queries) {
      auto sql = TpchQuerySql(q);
      ASSERT_TRUE(sql.ok()) << sql.status().ToString();
      auto got = rt->ExecuteSql(*sql);
      ASSERT_TRUE(got.ok()) << "Q" << q << ": " << got.status().ToString();
      want[q] = Canonical(*got);
    }
  }

  // Matrix-wide fault accounting.
  int64_t input_failures = 0;
  int64_t output_failures = 0;
  int64_t task_crashes = 0;
  int64_t machine_failures = 0;
  int64_t corrupt_retries = 0;
  int64_t read_retries = 0;
  int64_t read_timeouts = 0;
  int64_t spill_io_errors = 0;
  int64_t spill_io_retries = 0;
  int64_t spill_lost_slots = 0;

  for (const ChaosSchedule& sched : Schedules()) {
    SCOPED_TRACE(sched.name);
    auto rt = MakeRuntime(ApplySchedule(sched));
    for (int q : queries) {
      SCOPED_TRACE("Q" + std::to_string(q));
      auto sql = TpchQuerySql(q);
      ASSERT_TRUE(sql.ok());
      auto report = rt->RunSql(*sql);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(Canonical(report->result), want[q])
          << "results diverged under injected faults";
      const JobRunStats& s = report->stats;
      // Bounded recovery: with max_task_attempts = 3, no task runs more
      // than twice beyond its first attempt.
      const int fresh = s.tasks_executed - s.tasks_rerun;
      EXPECT_LE(s.tasks_rerun, 2 * fresh) << "task re-runs unbounded";
      auto by_case = s.recoveries_by_case;
      input_failures += by_case[RecoveryCase::kInputFailure];
      output_failures += by_case[RecoveryCase::kOutputFailure];
      machine_failures += s.machine_failures;
      corrupt_retries += s.corrupt_read_retries;
    }
    // Shuffle/injector counters are cumulative per runtime.
    const ShuffleServiceStats ss = rt->shuffle_service()->stats();
    read_retries += ss.read_retries;
    read_timeouts += ss.read_timeouts;
    const CacheWorkerStats ws = rt->shuffle_service()->worker_stats();
    spill_io_errors += ws.spill_io_errors;
    spill_io_retries += ws.spill_io_retries;
    spill_lost_slots += ws.spill_lost_slots;
    ASSERT_NE(rt->fault_injector(), nullptr);
    task_crashes += rt->fault_injector()->stats().task_crashes;
  }

  // Every paper scenario the schedules target actually fired somewhere.
  EXPECT_GE(task_crashes, 1);
  EXPECT_GE(input_failures, 1) << "no run hit Fig. 7(a) input failure";
  EXPECT_GE(output_failures, 1) << "no run hit Fig. 7(b) output failure";
  EXPECT_GE(machine_failures, 1);
  EXPECT_GE(read_timeouts, 1);
  EXPECT_GE(read_retries, 1) << "no transient read was retried in place";
  EXPECT_GE(corrupt_retries, 1) << "no CRC-rejected payload was re-fetched";
  EXPECT_GE(spill_io_errors, 1) << "no spill-path fault was exercised";
  EXPECT_GE(spill_io_retries, 1) << "no transient spill fault was retried";
  EXPECT_GE(spill_lost_slots, 1)
      << "no permanent spill loss escalated to recovery";
}

// The metrics registry must stay in lockstep with the per-report
// JobRunStats, the shuffle service's stats struct, and the chaos
// engine's own ledger — under every schedule, not just clean runs.
// bench_chaos_matrix reads the registry instead of the structs; this
// test is what makes that substitution safe.
TEST(ChaosSoak, RegistryMatchesInjectorAndRunStats) {
  const std::vector<int> queries = RunnableTpchQueries();
  ASSERT_FALSE(queries.empty());

  for (const ChaosSchedule& sched : Schedules()) {
    SCOPED_TRACE(sched.name);
    obs::MetricsRegistry reg;
    LocalRuntimeConfig cfg = ApplySchedule(sched);
    cfg.metrics = &reg;
    auto rt = MakeRuntime(cfg);

    // Suite-wide sums of the per-report stats the registry mirrors.
    int64_t tasks_executed = 0;
    int64_t tasks_rerun = 0;
    int64_t recoveries = 0;
    int64_t resends = 0;
    int64_t machine_failures = 0;
    int64_t corrupt_retries = 0;
    int64_t restart_equivalent = 0;
    std::map<RecoveryCase, int64_t> by_case;
    for (int q : queries) {
      SCOPED_TRACE("Q" + std::to_string(q));
      auto sql = TpchQuerySql(q);
      ASSERT_TRUE(sql.ok());
      auto report = rt->RunSql(*sql);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      const JobRunStats& s = report->stats;
      tasks_executed += s.tasks_executed;
      tasks_rerun += s.tasks_rerun;
      recoveries += s.recoveries;
      resends += s.resend_notifications;
      machine_failures += s.machine_failures;
      corrupt_retries += s.corrupt_read_retries;
      restart_equivalent += s.job_restart_equivalent_tasks;
      for (const auto& [kase, n] : s.recoveries_by_case) by_case[kase] += n;
    }

    // Runtime counters vs JobRunStats sums.
    EXPECT_EQ(reg.CounterValue("runtime.tasks.started"), tasks_executed);
    EXPECT_EQ(reg.CounterValue("runtime.tasks.started"),
              reg.CounterValue("runtime.tasks.completed") +
                  reg.CounterValue("runtime.tasks.failed"));
    EXPECT_EQ(reg.CounterValue("runtime.tasks.rerun"), tasks_rerun);
    EXPECT_EQ(reg.CounterValue("runtime.recoveries"), recoveries);
    EXPECT_EQ(reg.CounterValue("runtime.resend_notifications"), resends);
    EXPECT_EQ(reg.CounterValue("runtime.machine_failures"), machine_failures);
    EXPECT_EQ(reg.CounterValue("runtime.corrupt_read_retries"),
              corrupt_retries);
    EXPECT_EQ(reg.CounterValue("runtime.restart_equivalent_tasks"),
              restart_equivalent);
    int64_t case_total = 0;
    for (const auto& [kase, n] : by_case) {
      EXPECT_EQ(reg.CounterValue("runtime.recovery." +
                                 std::string(RecoveryCaseToString(kase))),
                n);
      case_total += n;
    }
    EXPECT_EQ(reg.CounterValue("runtime.recoveries"), case_total);

    // Shuffle counters vs the service's stats struct and the injector.
    const ShuffleServiceStats ss = rt->shuffle_service()->stats();
    EXPECT_EQ(reg.CounterValue("shuffle.read_retries"), ss.read_retries);
    EXPECT_EQ(reg.CounterValue("shuffle.read_timeouts"), ss.read_timeouts);
    EXPECT_EQ(reg.CounterValue("shuffle.failover_reads"), ss.failover_reads);
    EXPECT_EQ(reg.CounterValue("shuffle.corrupt_payloads"),
              ss.corrupt_payloads);
    // Pressure/quota/spill-fault counters stay in lockstep too.
    const CacheWorkerStats ws = rt->shuffle_service()->worker_stats();
    EXPECT_EQ(reg.CounterValue("shuffle.backpressure.rejections"),
              ws.backpressure_rejections);
    EXPECT_EQ(reg.CounterValue("shuffle.backpressure.rejected_bytes"),
              ws.bytes_rejected);
    EXPECT_EQ(reg.CounterValue("shuffle.backpressure.forced_admits"),
              ws.forced_admits);
    EXPECT_EQ(reg.CounterValue("shuffle.backpressure.waits"),
              ss.put_backpressure_waits);
    EXPECT_EQ(reg.CounterValue("shuffle.quota.evictions"), ws.quota_evictions);
    EXPECT_EQ(reg.CounterValue("shuffle.spill.io_errors"), ws.spill_io_errors);
    EXPECT_EQ(reg.CounterValue("shuffle.spill.retries"), ws.spill_io_retries);
    EXPECT_EQ(reg.CounterValue("cache.spill.stored_bytes"),
              ws.spill_stored_bytes);
    if (sched.spill) {
      EXPECT_GT(ws.spill_stored_bytes, 0) << "a spill schedule spilled nothing";
    }
    EXPECT_EQ(reg.CounterValue("shuffle.spill.lost_slots"),
              ws.spill_lost_slots);
    ASSERT_NE(rt->fault_injector(), nullptr);
    const FaultInjectorStats fi = rt->fault_injector()->stats();
    EXPECT_EQ(reg.CounterValue("shuffle.read_timeouts"), fi.read_timeouts);
    EXPECT_EQ(reg.CounterValue("shuffle.corrupt_payloads"), fi.corruptions);
    // Every injected crash surfaced as a failed (then recovered) task.
    EXPECT_GE(reg.CounterValue("runtime.tasks.failed"), fi.task_crashes);

    // Machine loss: each detection feeds the detection-delay histogram
    // exactly once, and the delay is bounded by the heartbeat budget
    // that the misses counter tracks.
    const obs::HistogramSnapshot delay =
        reg.HistogramValue("fault.detection_delay_s");
    EXPECT_EQ(delay.count, reg.CounterValue("runtime.machine_failures"));
    if (sched.fs.kill_machine >= 0) {
      EXPECT_GE(delay.count, 1) << "machine loss was never detected";
      EXPECT_GE(delay.min, 0.0);
      EXPECT_GE(reg.CounterValue("fault.heartbeat.misses"), 0);
    }
  }
}

}  // namespace
}  // namespace swift
