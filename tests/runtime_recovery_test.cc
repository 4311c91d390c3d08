#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/hash64.h"
#include "common/string_util.h"
#include "exec/tpch.h"
#include "obs/trace_recorder.h"
#include "partition/partitioners.h"
#include "runtime/local_runtime.h"
#include "sql/tpch_queries.h"

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
// Pipeline-only plan: a three-task scan pipelines into the one-task
// gather stage in one graphlet (-> kIntraIdempotent). Unsplit, the
// one-task scan would be the sink itself, with no consumer to pipeline.
const char* kSelectSql = "select n_name from tpch_nation where n_regionkey = 3";
PlannerConfig SplitScans() {
  PlannerConfig pc;
  pc.rows_per_scan_task = 10;
  return pc;
}

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
                   int task_index, RecoveryCase want_case,
                   const PlannerConfig& pc = {}) {
  const std::vector<std::string> want = CleanResult(sql, pc);
  for (FailureKind kind : kRetryableKinds) {
    SCOPED_TRACE(std::string(FailureKindToString(kind)));
    auto rt = MakeRuntime();
    auto plan = PlanSql(sql, *rt->catalog(), pc);
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
  auto plan = PlanSql(kSelectSql, *MakeRuntime()->catalog(), SplitScans());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->stages.size(), 2u);
  ASSERT_EQ(plan->program(FindScanStage(*plan)).task_count, 3);
  RunCaseMatrix(kSelectSql, FindScanStage, 0, RecoveryCase::kIntraIdempotent,
                SplitScans());
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

// Asks the runtime's arbiter for a gang of every executor in the
// cluster, under a job id the runtime never issues, and hands it back.
Result<std::vector<ExecutorId>> WholeClusterGang(LocalRuntime* rt) {
  constexpr JobId kProbeJob = JobId{1} << 40;
  const LocalRuntimeConfig cfg;
  GangArbiter* arbiter = rt->arbiter();
  arbiter->BeginJob(kProbeJob, JobRunOptions{});
  Result<GangArbiter::Ticket> ticket = arbiter->RequestGang(
      kProbeJob, std::vector<LocalityPref>(static_cast<std::size_t>(
                     cfg.machines * cfg.executors_per_machine)));
  Result<std::vector<ExecutorId>> gang = ticket.status();
  if (ticket.ok()) {
    std::optional<GangArbiter::Grant> grant = arbiter->GrantHead();
    gang = grant.has_value() ? std::move(grant->gang)
                             : Status::Internal("whole-cluster gang waits");
  }
  if (gang.ok()) arbiter->ReleaseGang(kProbeJob, *gang);
  arbiter->EndJob(kProbeJob);
  return gang;
}

// A machine restored after a kill comes back with a clean health record,
// and the arbiter hears it at the restore: a machine drained read-only
// by task failures, then killed and restored, holds schedulable
// executors again before any later graphlet runs.
TEST(RuntimeRecoveryMatrix, RestoredDrainedMachineIsSchedulableAtOnce) {
  const char* sql =
      "select l_returnflag, count(*) as n from tpch_lineitem "
      "group by l_returnflag";
  PlannerConfig pc;
  pc.rows_per_scan_task = 500;
  auto rt = MakeRuntime();
  auto plan = PlanSql(sql, *rt->catalog(), pc);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const StageId scan = FindScanStage(*plan);
  ASSERT_GE(plan->program(scan).task_count, 12);
  // Scan task t prefers machine t % 4: three crashes drain machine 1.
  for (const int t : {1, 5, 9}) {
    rt->InjectFailureOnce(TaskRef{scan, t}, FailureKind::kProcessCrash);
  }
  auto report = rt->RunPlan(*plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(rt->health_monitor()->IsReadOnly(1));
  rt->FailMachine(1);
  rt->RestoreMachine(1);
  EXPECT_FALSE(rt->health_monitor()->IsReadOnly(1));
  auto gang = WholeClusterGang(rt.get());
  ASSERT_TRUE(gang.ok()) << gang.status().ToString();
  EXPECT_EQ(gang->size(), 256u);
}

// The arbiter hears of a kill at the kill, before any loss detection or
// graphlet boundary: a gang needing the dead machine's executors fails
// fast instead of being granted executors on it.
TEST(RuntimeRecoveryMatrix, KilledMachineLeavesTheArbiterAtOnce) {
  auto rt = MakeRuntime();
  ASSERT_TRUE(WholeClusterGang(rt.get()).ok());
  rt->FailMachine(2);
  auto gang = WholeClusterGang(rt.get());
  ASSERT_FALSE(gang.ok());
  EXPECT_TRUE(gang.status().IsResourceExhausted())
      << gang.status().ToString();
}

// The tpch-chaos fault schedule (bench_e2e's ApplyChaos: seeded task
// crashes, read timeouts, bit flips, and machine 0 lost at the 20th task
// start, inside Q9) at the default max_task_attempts and
// health_failure_threshold. On these seeds a Q9 task that crashed once
// later has a retained slot reported lost after its consumer had read
// it; that recovery takes no step and re-runs nothing, so it must not
// spend the task's attempt budget. Every query completes with the clean
// answer.
TEST(RuntimeRecoveryMatrix, ChaosScheduleCompletesAtDefaultConfig) {
  std::vector<int> queries = RunnableTpchQueries();
  std::stable_partition(queries.begin(), queries.end(),
                        [](int q) { return q == 9; });
  std::map<int, std::vector<std::string>> want;
  for (const int q : queries) {
    auto sql = TpchQuerySql(q);
    ASSERT_TRUE(sql.ok()) << sql.status().ToString();
    want[q] = CleanResult(sql->c_str());
  }
  for (const uint64_t seed : {16u, 64u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LocalRuntimeConfig cfg;
    ASSERT_EQ(cfg.max_task_attempts, 3);
    ASSERT_EQ(cfg.health_failure_threshold, 3);
    FaultSchedule fs;
    fs.seed = Mix64(seed);
    fs.task_crash_p = 0.1;
    fs.max_task_crashes = 64;
    fs.read_timeout_p = 0.2;
    fs.corrupt_p = 0.1;
    fs.kill_machine = 0;
    fs.kill_after_task_starts = 20;
    cfg.fault_schedule = fs;
    auto rt = MakeRuntime(cfg);
    int no_step_recoveries = 0;
    for (const int q : queries) {
      auto plan = PlanSql(*TpchQuerySql(q), *rt->catalog());
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      auto report = rt->RunPlan(*plan);
      ASSERT_TRUE(report.ok())
          << "Q" << q << ": " << report.status().ToString();
      EXPECT_EQ(Canonical(report->result), want[q]) << "Q" << q;
      no_step_recoveries +=
          report->stats.recoveries_by_case[RecoveryCase::kNone];
    }
    EXPECT_EQ(rt->fault_injector()->stats().machine_kills, 1);
    EXPECT_GE(no_step_recoveries, 1);
  }
}

// The runtime's write-side replica fan-out under one seeded machine
// loss: Q9 over Remote shuffle (so every partition lives on a Cache
// Worker) loses machine 0 at the 20th task start, as tpch-chaos does.
// At fan-out 2 a live worker holds a copy of each partition the dead
// one held, so consumers fail over to it instead of re-running its
// producers; the answer is the clean one at both fan-outs.
TEST(RuntimeRecoveryMatrix, ReplicaFanoutServesMachineLossFromReplicas) {
  auto sql = TpchQuerySql(9);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  const std::vector<std::string> want = CleanResult(sql->c_str());
  std::map<int, JobRunStats> stats;
  for (const int fanout : {1, 2}) {
    SCOPED_TRACE("fan-out " + std::to_string(fanout));
    LocalRuntimeConfig cfg;
    cfg.force_shuffle_kind = ShuffleKind::kRemote;
    cfg.shuffle_replica_fanout = fanout;
    FaultSchedule fs;
    fs.kill_machine = 0;
    fs.kill_after_task_starts = 20;
    cfg.fault_schedule = fs;
    auto rt = MakeRuntime(cfg);
    auto report = rt->RunSql(*sql);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(Canonical(report->result), want);
    EXPECT_EQ(rt->fault_injector()->stats().machine_kills, 1);
    stats[fanout] = report->stats;
  }
  EXPECT_EQ(stats[1].shuffle.replica_writes, 0);
  EXPECT_GE(stats[2].shuffle.replica_writes, 1);
  EXPECT_GE(stats[2].shuffle.failover_reads, 1);
  EXPECT_LE(stats[2].tasks_rerun, stats[1].tasks_rerun);
}

// ---- Graphlet scheduling -------------------------------------------

// A sort-mode group-by with ORDER BY plans two graphlets in a chain: the
// scan pipelines into the aggregate, whose sort cuts before the one-task
// ORDER BY stage (the sink).
const char* kChainSql =
    "select n_regionkey, count(*) as n from tpch_nation group by "
    "n_regionkey order by n desc";

// The chain's graphlets in dependency order, as "graphlet<id>" span names.
std::vector<std::string> ChainOrder(const GraphletPlan& gp) {
  std::vector<std::string> order;
  std::set<GraphletId> done;
  while (done.size() < gp.graphlets.size()) {
    std::vector<GraphletId> ready;
    for (const Graphlet& g : gp.graphlets) {
      const auto& deps = gp.deps[static_cast<std::size_t>(g.id)];
      if (done.count(g.id) == 0 &&
          std::all_of(deps.begin(), deps.end(),
                      [&](GraphletId d) { return done.count(d) > 0; })) {
        ready.push_back(g.id);
      }
    }
    EXPECT_EQ(ready.size(), 1u) << "not a chain";
    if (ready.empty()) break;
    done.insert(ready[0]);
    order.push_back(StrFormat("graphlet%d", ready[0]));
  }
  return order;
}

std::vector<std::string> GraphletSpans(const obs::TraceRecorder& tracer) {
  std::vector<std::string> names;
  for (const obs::Span& s : tracer.Spans()) {
    if (s.category == "graphlet") names.push_back(s.name);
  }
  return names;
}

TEST(RuntimeGraphletTest, SubmitsInDependencyOrder) {
  obs::TraceRecorder tracer;
  LocalRuntimeConfig cfg;
  cfg.tracer = &tracer;
  auto rt = MakeRuntime(cfg);
  auto plan = PlanSql(kChainSql, *rt->catalog(), PlannerConfig{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto gp = ShuffleModeAwarePartitioner().Partition(plan->dag);
  ASSERT_TRUE(gp.ok());
  ASSERT_EQ(gp->graphlets.size(), 2u);
  const std::vector<std::string> order = ChainOrder(*gp);
  auto report = rt->RunPlan(*plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Each graphlet runs once, only after the one it depends on completed.
  EXPECT_EQ(GraphletSpans(tracer), order);
}

TEST(RuntimeGraphletTest, CrossGraphletRecoveryRerunsUpstreamGraphlet) {
  const std::vector<std::string> want = CleanResult(kGroupBySql);
  auto planned = PlanSql(kGroupBySql, *MakeRuntime()->catalog());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto gp = ShuffleModeAwarePartitioner().Partition(planned->dag);
  ASSERT_TRUE(gp.ok());
  const std::vector<std::string> order = ChainOrder(*gp);
  ASSERT_EQ(order.size(), 2u);
  // Lose a machine when the downstream graphlet's first task starts: the
  // upstream aggregate output it retained dies with it.
  int upstream_tasks = 0;
  for (StageId sid :
       gp->graphlets[static_cast<std::size_t>(gp->GraphletOf(
                         FindScanStage(*planned)))].stages) {
    upstream_tasks += planned->program(sid).task_count;
  }
  obs::TraceRecorder tracer;
  LocalRuntimeConfig cfg;
  cfg.tracer = &tracer;
  FaultSchedule fs;
  fs.kill_machine = 1;
  fs.kill_after_task_starts = upstream_tasks + 1;
  cfg.fault_schedule = fs;
  auto rt = MakeRuntime(cfg);
  auto report = rt->RunPlan(*planned);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(Canonical(report->result), want);
  EXPECT_GE(report->stats.machine_failures, 1);
  // The downstream graphlet suspends, the upstream one re-runs the lost
  // tasks, then the downstream one completes.
  EXPECT_EQ(GraphletSpans(tracer),
            (std::vector<std::string>{order[0], order[1], order[0], order[1]}));
}

}  // namespace
}  // namespace swift
