#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exec/tpch.h"
#include "runtime/local_runtime.h"

namespace swift {
namespace {

// Runtime-level recovery matrix: every FailureKind x RecoveryCase pair
// exercised through real execution (not just the RecoveryPlanner unit),
// plus machine loss, multi-failure waves, and the transient-read paths.

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

StageId FindScanStage(const DistributedPlan& plan) {
  for (const auto& [id, p] : plan.stages) {
    if (!p.scan_table.empty()) return id;
  }
  return -1;
}

StageId FindFinalStage(const DistributedPlan& plan) { return plan.final_stage; }

StageId FindAggStage(const DistributedPlan& plan) {
  for (const auto& [id, p] : plan.stages) {
    for (const auto& op : p.ops) {
      if (op.kind == LocalOpDesc::Kind::kStreamedAggregate ||
          op.kind == LocalOpDesc::Kind::kHashAggregate) {
        return id;
      }
    }
  }
  return -1;
}

// Sort-mode group-by plans as scan ->(pipeline) agg ->(barrier) final:
// the sorting aggregate's only successor is cross-graphlet
// (-> kOutputFailure) and the final stage's only predecessor is
// cross-graphlet (-> kInputFailure).
const char* kGroupBySql =
    "select n_regionkey, count(*) as n from tpch_nation group by "
    "n_regionkey";
// Pipeline-only plan: scan and final stage share one graphlet
// (-> kIntraIdempotent).
const char* kSelectSql = "select n_name from tpch_nation where n_regionkey = 3";

const FailureKind kRetryableKinds[] = {FailureKind::kProcessCrash,
                                       FailureKind::kMachineFailure,
                                       FailureKind::kNetworkTimeout};

std::vector<std::string> CleanResult(const char* sql,
                                     const PlannerConfig& pc = {}) {
  auto rt = MakeRuntime();
  auto got = rt->ExecuteSql(sql, pc);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  return Canonical(*got);
}

// One injected failure, full job run, byte-compared against a clean run.
void RunCaseMatrix(const char* sql, StageId (*pick)(const DistributedPlan&),
                   int task_index, RecoveryCase want_case) {
  const std::vector<std::string> want = CleanResult(sql);
  for (FailureKind kind : kRetryableKinds) {
    SCOPED_TRACE(std::string(FailureKindToString(kind)));
    auto rt = MakeRuntime();
    auto plan = PlanSql(sql, *rt->catalog(), PlannerConfig{});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const StageId target = pick(*plan);
    ASSERT_GE(target, 0);
    rt->InjectFailureOnce(TaskRef{target, task_index}, kind);
    auto report = rt->RunPlan(*plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(Canonical(report->result), want);
    EXPECT_GE(report->stats.recoveries, 1);
    EXPECT_GE(report->stats.tasks_rerun, 1);
    EXPECT_GE(report->stats.recoveries_by_case[want_case], 1)
        << "expected case " << RecoveryCaseToString(want_case);
  }
}

TEST(RuntimeRecoveryMatrix, IntraIdempotentAcrossFailureKinds) {
  RunCaseMatrix(kSelectSql, FindScanStage, 0, RecoveryCase::kIntraIdempotent);
}

TEST(RuntimeRecoveryMatrix, InputFailureAcrossFailureKinds) {
  RunCaseMatrix(kGroupBySql, FindFinalStage, 0, RecoveryCase::kInputFailure);
}

TEST(RuntimeRecoveryMatrix, OutputFailureAcrossFailureKinds) {
  RunCaseMatrix(kGroupBySql, FindAggStage, 1, RecoveryCase::kOutputFailure);
}

TEST(RuntimeRecoveryMatrix, NonIdempotentStagePoisonsSuccessors) {
  const std::vector<std::string> want = CleanResult(kGroupBySql);
  auto rt = MakeRuntime();
  auto planned = PlanSql(kGroupBySql, *rt->catalog(), PlannerConfig{});
  ASSERT_TRUE(planned.ok());
  DistributedPlan plan = *planned;
  // Same topology, every stage declared non-idempotent: recovery must
  // take the Fig. 6(b) path and invalidate downstream retained output.
  std::vector<StageDef> stages = plan.dag.stages();
  for (StageDef& s : stages) s.idempotent = false;
  auto dag = JobDag::Create(plan.dag.name(), stages, plan.dag.edges());
  ASSERT_TRUE(dag.ok()) << dag.status().ToString();
  plan.dag = *dag;
  const StageId agg = FindAggStage(plan);
  ASSERT_GE(agg, 0);
  rt->InjectFailureOnce(TaskRef{agg, 1}, FailureKind::kProcessCrash);
  auto report = rt->RunPlan(plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Canonical(report->result), want);
  EXPECT_GE(report->stats.recoveries_by_case[RecoveryCase::kIntraNonIdempotent],
            1);
}

TEST(RuntimeRecoveryMatrix, MultipleFailuresInOneStageWave) {
  const std::vector<std::string> want = CleanResult(kGroupBySql);
  auto rt = MakeRuntime();
  auto plan = PlanSql(kGroupBySql, *rt->catalog(), PlannerConfig{});
  ASSERT_TRUE(plan.ok());
  const StageId agg = FindAggStage(*plan);
  ASSERT_GE(agg, 0);
  rt->InjectFailureOnce(TaskRef{agg, 0}, FailureKind::kProcessCrash);
  rt->InjectFailureOnce(TaskRef{agg, 1}, FailureKind::kNetworkTimeout);
  auto report = rt->RunPlan(*plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Canonical(report->result), want);
  EXPECT_GE(report->stats.recoveries, 2);
  EXPECT_GE(report->stats.tasks_rerun, 2);
  EXPECT_GE(report->stats.recoveries_by_case[RecoveryCase::kOutputFailure], 2);
}

TEST(RuntimeRecoveryMatrix, ApplicationErrorInAggregateIsReportOnly) {
  auto rt = MakeRuntime();
  auto plan = PlanSql(kGroupBySql, *rt->catalog(), PlannerConfig{});
  ASSERT_TRUE(plan.ok());
  const StageId agg = FindAggStage(*plan);
  ASSERT_GE(agg, 0);
  rt->InjectFailureOnce(TaskRef{agg, 2}, FailureKind::kApplicationError);
  auto report = rt->RunPlan(*plan);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kApplication);
}

TEST(RuntimeRecoveryMatrix, ScheduledMachineLossMidJob) {
  const std::vector<std::string> want = CleanResult(kGroupBySql);
  LocalRuntimeConfig cfg;
  FaultSchedule fs;
  fs.kill_machine = 1;
  fs.kill_after_task_starts = 2;  // mid-wave: after the scan, during agg
  cfg.fault_schedule = fs;
  auto rt = MakeRuntime(cfg);
  auto report = rt->RunSql(kGroupBySql);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Canonical(report->result), want);
  EXPECT_GE(report->stats.machine_failures, 1);
  ASSERT_NE(rt->fault_injector(), nullptr);
  EXPECT_EQ(rt->fault_injector()->stats().machine_kills, 1);
  const auto down = rt->DownMachines();
  EXPECT_NE(std::find(down.begin(), down.end(), 1), down.end());
}

TEST(RuntimeRecoveryMatrix, MachineLossAfterConsumersReadIsNoStepRecovery) {
  // Hash mode keeps the whole job in one graphlet; once every aggregate
  // task has pulled the scan's output, losing the scan's machine must
  // plan to the paper's "no step will be taken" case for the scan while
  // the lost aggregate output is rebuilt.
  PlannerConfig hashed;
  hashed.sort_mode = false;
  const std::vector<std::string> want = CleanResult(kGroupBySql, hashed);
  LocalRuntimeConfig cfg;
  cfg.force_shuffle_kind = ShuffleKind::kDirect;
  auto probe = MakeRuntime(cfg);
  auto plan = PlanSql(kGroupBySql, *probe->catalog(), hashed);
  ASSERT_TRUE(plan.ok());
  FaultSchedule fs;
  fs.kill_machine = 0;  // first-wave placement: the scan's machine
  fs.kill_after_task_starts = static_cast<int>(plan->dag.TotalTasks());
  cfg.fault_schedule = fs;
  auto rt = MakeRuntime(cfg);
  auto report = rt->RunPlan(*plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Canonical(report->result), want);
  EXPECT_GE(report->stats.machine_failures, 1);
  EXPECT_GE(report->stats.recoveries_by_case[RecoveryCase::kNone], 1);
}

TEST(RuntimeRecoveryMatrix, FailAndRestoreMachineApi) {
  const std::vector<std::string> want = CleanResult(kGroupBySql);
  auto rt = MakeRuntime();
  rt->FailMachine(2);
  ASSERT_EQ(rt->DownMachines(), std::vector<int>{2});
  auto around = rt->RunSql(kGroupBySql);
  ASSERT_TRUE(around.ok()) << around.status().ToString();
  EXPECT_EQ(Canonical(around->result), want);
  rt->RestoreMachine(2);
  EXPECT_TRUE(rt->DownMachines().empty());
  auto after = rt->RunSql(kGroupBySql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(Canonical(after->result), want);
}

TEST(RuntimeRecoveryMatrix, TransientTimeoutsRetryInPlace) {
  const std::vector<std::string> want = CleanResult(kGroupBySql);
  LocalRuntimeConfig cfg;
  FaultSchedule fs;
  fs.read_timeout_p = 1.0;  // every slot is a flaky link
  fs.timeouts_per_victim = 2;
  fs.max_read_timeouts = 1 << 20;
  cfg.fault_schedule = fs;
  auto rt = MakeRuntime(cfg);
  auto report = rt->RunSql(kGroupBySql);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Canonical(report->result), want);
  // Timeouts are absorbed by in-place retries, never by task re-runs.
  EXPECT_GE(report->stats.shuffle.read_timeouts, 1);
  EXPECT_GE(report->stats.shuffle.read_retries, 1);
  EXPECT_EQ(report->stats.tasks_rerun, 0);
  EXPECT_EQ(report->stats.recoveries, 0);
}

TEST(RuntimeRecoveryMatrix, CorruptPayloadsAreRejectedAndRefetched) {
  const std::vector<std::string> want = CleanResult(kGroupBySql);
  LocalRuntimeConfig cfg;
  FaultSchedule fs;
  fs.corrupt_p = 1.0;
  fs.max_corruptions = 4;
  cfg.fault_schedule = fs;
  auto rt = MakeRuntime(cfg);
  auto report = rt->RunSql(kGroupBySql);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Canonical(report->result), want);
  EXPECT_GE(report->stats.corrupt_read_retries, 1);
  EXPECT_GE(report->stats.shuffle.corrupt_payloads, 1);
  ASSERT_NE(rt->fault_injector(), nullptr);
  EXPECT_GE(rt->fault_injector()->stats().corruptions, 1);
}

// The drain's last-machine rule holds on loss too: with three of four
// machines drained by task failures (default threshold), losing the
// fourth mid-query must put a drained machine back in rotation instead
// of leaving every later gang request without a machine.
TEST(RuntimeRecoveryMatrix, LosingTheLastUndrainedMachineDoesNotStrandGangs) {
  const char* sql =
      "select l_returnflag, count(*) as n from tpch_lineitem "
      "group by l_returnflag";
  PlannerConfig pc;
  pc.rows_per_scan_task = 500;
  const std::vector<std::string> want = CleanResult(sql, pc);

  LocalRuntimeConfig cfg;
  ASSERT_EQ(cfg.machines, 4);
  ASSERT_EQ(cfg.health_failure_threshold, 3);
  auto probe = MakeRuntime(cfg);
  auto plan = PlanSql(sql, *probe->catalog(), pc);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const StageId scan = FindScanStage(*plan);
  ASSERT_GE(plan->program(scan).task_count, 12);
  const int scan_tasks = plan->program(scan).task_count;

  // Scan task t prefers machine t % 4. Three crashes each on machines
  // 0-2 drain them; their reruns fail over to machine 3. Machine 3 then
  // dies as the first aggregate task starts, after every scan attempt.
  std::vector<TaskRef> victims;
  for (int t = 0; t < 12; ++t) {
    if (t % 4 != 3) victims.push_back(TaskRef{scan, t});
  }
  FaultSchedule fs;
  fs.kill_machine = 3;
  fs.kill_after_task_starts =
      scan_tasks + static_cast<int>(victims.size()) + 1;
  cfg.fault_schedule = fs;
  auto rt = MakeRuntime(cfg);
  for (const TaskRef& v : victims) {
    rt->InjectFailureOnce(v, FailureKind::kProcessCrash);
  }
  auto report = rt->RunPlan(*plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Canonical(report->result), want);
  EXPECT_EQ(rt->fault_injector()->stats().machine_kills, 1);
  EXPECT_GE(report->stats.machine_failures, 1);
  // Machines 1 and 2 stay drained; machine 0 rejoined when 3 was lost.
  const MachineHealthMonitor& health = *rt->health_monitor();
  EXPECT_FALSE(health.IsReadOnly(0));
  EXPECT_TRUE(health.IsReadOnly(1));
  EXPECT_TRUE(health.IsReadOnly(2));
}

}  // namespace
}  // namespace swift
