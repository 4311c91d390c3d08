#include "fault/recovery.h"

#include <gtest/gtest.h>

#include "dag/dag_builder.h"
#include "fault/heartbeat.h"
#include "partition/partitioners.h"

namespace swift {
namespace {

using OK = OperatorKind;

// A 3-graphlet job:
//   g1: scan1, scan2 -> sorter (barrier out)
//   g2: mid -> sorter2 (barrier out)
//   g3: sink
struct Fixture {
  JobDag dag;
  GraphletPlan plan;
  StageId scan1, scan2, sorter, mid, sorter2, sink;
};

Fixture Build(bool mid_idempotent = true) {
  DagBuilder b("recovery");
  Fixture f;
  f.scan1 = b.AddStage("scan1", 2, {OK::kTableScan, OK::kShuffleWrite});
  f.scan2 = b.AddStage("scan2", 2, {OK::kTableScan, OK::kShuffleWrite});
  f.sorter = b.AddStage("sorter", 2,
                        {OK::kShuffleRead, OK::kMergeSort, OK::kShuffleWrite});
  f.mid = b.AddStage("mid", 3, {OK::kShuffleRead, OK::kShuffleWrite});
  f.sorter2 = b.AddStage("sorter2", 2,
                         {OK::kShuffleRead, OK::kMergeSort, OK::kShuffleWrite});
  f.sink = b.AddStage("sink", 1, {OK::kShuffleRead, OK::kAdhocSink});
  b.MutableStage(f.mid).idempotent = mid_idempotent;
  b.AddEdge(f.scan1, f.sorter)
      .AddEdge(f.scan2, f.sorter)
      .AddEdge(f.sorter, f.mid)
      .AddEdge(f.mid, f.sorter2)
      .AddEdge(f.sorter2, f.sink);
  auto dag = b.Build();
  EXPECT_TRUE(dag.ok());
  f.dag = std::move(dag).ValueOrDie();
  auto plan = ShuffleModeAwarePartitioner().Partition(f.dag);
  EXPECT_TRUE(plan.ok());
  f.plan = std::move(plan).ValueOrDie();
  return f;
}

RecoveryContext CtxWithExecuted(std::initializer_list<TaskRef> tasks) {
  RecoveryContext ctx;
  ctx.executed = tasks;
  return ctx;
}

TEST(RecoveryTest, FixtureHasThreeGraphlets) {
  Fixture f = Build();
  EXPECT_EQ(f.plan.graphlets.size(), 3u);
  EXPECT_EQ(f.plan.GraphletOf(f.scan1), f.plan.GraphletOf(f.sorter));
  EXPECT_EQ(f.plan.GraphletOf(f.mid), f.plan.GraphletOf(f.sorter2));
  EXPECT_NE(f.plan.GraphletOf(f.sorter), f.plan.GraphletOf(f.mid));
}

TEST(RecoveryTest, ApplicationErrorIsUseless) {
  Fixture f = Build();
  RecoveryPlanner planner(&f.dag, &f.plan);
  auto d = planner.Plan(TaskRef{f.mid, 0}, FailureKind::kApplicationError,
                        CtxWithExecuted({}));
  EXPECT_EQ(d.kase, RecoveryCase::kUseless);
  EXPECT_TRUE(d.report_only);
  EXPECT_TRUE(d.rerun.empty());
}

TEST(RecoveryTest, IntraGraphletIdempotentRerunsOnlyFailedTask) {
  Fixture f = Build();
  RecoveryPlanner planner(&f.dag, &f.plan);
  // sorter failed; its intra-graphlet predecessors are scan1/scan2.
  auto d = planner.Plan(TaskRef{f.sorter, 1}, FailureKind::kProcessCrash,
                        CtxWithExecuted({TaskRef{f.scan1, 0},
                                         TaskRef{f.scan1, 1},
                                         TaskRef{f.scan2, 0},
                                         TaskRef{f.scan2, 1}}));
  EXPECT_EQ(d.kase, RecoveryCase::kOutputFailure);  // successors cross-graphlet
  ASSERT_EQ(d.rerun.size(), 1u);
  EXPECT_EQ(d.rerun[0], (TaskRef{f.sorter, 1}));
  // scan1 (2 tasks) + scan2 (2 tasks) re-send without re-running.
  EXPECT_EQ(d.resend_upstream.size(), 4u);
  EXPECT_FALSE(d.report_only);
}

TEST(RecoveryTest, IdempotentNoActionWhenSuccessorsHaveData) {
  Fixture f = Build();
  RecoveryPlanner planner(&f.dag, &f.plan);
  RecoveryContext ctx;
  // mid's successor tasks (sorter2 x2) executed AND received output.
  ctx.executed = {TaskRef{f.sorter2, 0}, TaskRef{f.sorter2, 1}};
  ctx.received_output = ctx.executed;
  auto d = planner.Plan(TaskRef{f.mid, 1}, FailureKind::kProcessCrash, ctx);
  EXPECT_EQ(d.kase, RecoveryCase::kNone);
  EXPECT_TRUE(d.rerun.empty());
}

TEST(RecoveryTest, IdempotentRerunsWhenSuccessorLacksData) {
  Fixture f = Build();
  RecoveryPlanner planner(&f.dag, &f.plan);
  RecoveryContext ctx;
  ctx.executed = {TaskRef{f.sorter2, 0}, TaskRef{f.sorter2, 1}};
  ctx.received_output = {TaskRef{f.sorter2, 0}};  // task 1 missing data
  auto d = planner.Plan(TaskRef{f.mid, 1}, FailureKind::kProcessCrash, ctx);
  EXPECT_EQ(d.rerun.size(), 1u);
}

TEST(RecoveryTest, InputFailureNeedsNoUpstreamNotification) {
  Fixture f = Build();
  RecoveryPlanner planner(&f.dag, &f.plan);
  // mid's only predecessor (sorter) is in another graphlet: its data is
  // parked in Cache Workers, so the new instance just re-fetches.
  auto d = planner.Plan(TaskRef{f.mid, 0}, FailureKind::kProcessCrash,
                        CtxWithExecuted({TaskRef{f.sorter, 0},
                                         TaskRef{f.sorter, 1}}));
  EXPECT_EQ(d.kase, RecoveryCase::kInputFailure);
  EXPECT_TRUE(d.resend_upstream.empty());
  ASSERT_EQ(d.rerun.size(), 1u);
}

TEST(RecoveryTest, NonIdempotentRerunsExecutedSuccessorsTransitively) {
  Fixture f = Build(/*mid_idempotent=*/false);
  RecoveryPlanner planner(&f.dag, &f.plan);
  RecoveryContext ctx;
  ctx.executed = {TaskRef{f.sorter2, 0}, TaskRef{f.sorter2, 1},
                  TaskRef{f.sink, 0}};
  auto d = planner.Plan(TaskRef{f.mid, 2}, FailureKind::kProcessCrash, ctx);
  EXPECT_EQ(d.kase, RecoveryCase::kIntraNonIdempotent);
  // failed + sorter2 x2 + sink (transitive) = 4 re-runs.
  EXPECT_EQ(d.rerun.size(), 4u);
  EXPECT_EQ(d.rerun[0], (TaskRef{f.mid, 2}));
  // Outputs of mid and sorter2 are invalidated.
  EXPECT_EQ(d.invalidate_outputs.size(), 2u);
}

TEST(RecoveryTest, NonIdempotentWithNoExecutedSuccessors) {
  Fixture f = Build(/*mid_idempotent=*/false);
  RecoveryPlanner planner(&f.dag, &f.plan);
  auto d = planner.Plan(TaskRef{f.mid, 0}, FailureKind::kProcessCrash,
                        CtxWithExecuted({}));
  EXPECT_EQ(d.rerun.size(), 1u);
}

TEST(RecoveryTest, JobRestartRerunsEverythingExecuted) {
  Fixture f = Build();
  RecoveryPlanner planner(&f.dag, &f.plan);
  RecoveryContext ctx = CtxWithExecuted(
      {TaskRef{f.scan1, 0}, TaskRef{f.scan1, 1}, TaskRef{f.scan2, 0},
       TaskRef{f.scan2, 1}, TaskRef{f.sorter, 0}});
  EXPECT_EQ(planner.JobRestartRerunSet(ctx).size(), 5u);
}

TEST(HeartbeatTest, IntervalFollowsClusterSize) {
  EXPECT_DOUBLE_EQ(HeartbeatMonitor::IntervalForClusterSize(100), 5.0);
  EXPECT_DOUBLE_EQ(HeartbeatMonitor::IntervalForClusterSize(1000), 10.0);
  EXPECT_DOUBLE_EQ(HeartbeatMonitor::IntervalForClusterSize(10000), 15.0);
}

TEST(HeartbeatTest, DetectsMissingBeats) {
  HeartbeatMonitor hb(100, /*miss_threshold=*/3);  // 5 s interval
  hb.ReportHeartbeat(0, 0.0);
  hb.ReportHeartbeat(1, 0.0);
  hb.ReportHeartbeat(0, 14.0);
  // At t=16: machine 1 last beat 0.0, 16 > 15 -> failed.
  auto failed = hb.DetectFailed(16.0);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], 1);
  EXPECT_DOUBLE_EQ(hb.DetectionDelay(), 15.0);
}

TEST(HealthMonitorTest, ReadOnlyAfterFailureBurst) {
  MachineHealthMonitor hm(/*failure_threshold=*/3, /*window=*/10.0);
  hm.RecordTaskFailure(5, 1.0);
  hm.RecordTaskFailure(5, 2.0);
  EXPECT_FALSE(hm.IsReadOnly(5));
  hm.RecordTaskFailure(5, 3.0);
  EXPECT_TRUE(hm.IsReadOnly(5));
  // Only the failing machine drains.
  for (int m : {0, 4, 6}) EXPECT_FALSE(hm.IsReadOnly(m)) << m;
}

TEST(HealthMonitorTest, WindowSlides) {
  MachineHealthMonitor hm(3, 10.0);
  hm.RecordTaskFailure(1, 0.0);
  hm.RecordTaskFailure(1, 1.0);
  // Third failure 20 s later: the first two aged out.
  hm.RecordTaskFailure(1, 21.0);
  EXPECT_FALSE(hm.IsReadOnly(1));
}

TEST(HealthMonitorTest, WindowBoundaryIsInclusive) {
  // An entry exactly window_seconds old still counts (drop is strict >).
  MachineHealthMonitor hm(3, 10.0);
  hm.RecordTaskFailure(1, 0.0);
  hm.RecordTaskFailure(1, 5.0);
  hm.RecordTaskFailure(1, 10.0);  // first failure is exactly 10 s old
  EXPECT_TRUE(hm.IsReadOnly(1));

  MachineHealthMonitor hm2(3, 10.0);
  hm2.RecordTaskFailure(1, 0.0);
  hm2.RecordTaskFailure(1, 5.0);
  hm2.RecordTaskFailure(1, 10.1);  // now the first one aged out
  EXPECT_FALSE(hm2.IsReadOnly(1));
}

TEST(HealthMonitorTest, ProbationReturnsMachineToRotation) {
  MachineHealthMonitor hm(3, 10.0, /*probation=*/30.0);
  hm.RecordTaskFailure(4, 1.0);
  hm.RecordTaskFailure(4, 2.0);
  hm.RecordTaskFailure(4, 3.0);
  ASSERT_TRUE(hm.IsReadOnly(4));
  // Just inside probation: still drained.
  EXPECT_TRUE(hm.ClearExpired(32.9).empty());
  EXPECT_TRUE(hm.IsReadOnly(4));
  // Clean for a full probation window: back in rotation.
  EXPECT_EQ(hm.ClearExpired(33.0), std::vector<int>{4});
  EXPECT_FALSE(hm.IsReadOnly(4));
  // History is wiped: one fresh failure must not re-drain it...
  hm.RecordTaskFailure(4, 34.0);
  EXPECT_FALSE(hm.IsReadOnly(4));
  // ...but a fresh burst does.
  hm.RecordTaskFailure(4, 35.0);
  hm.RecordTaskFailure(4, 36.0);
  EXPECT_TRUE(hm.IsReadOnly(4));
}

TEST(HealthMonitorTest, ProbationDisabledByDefault) {
  MachineHealthMonitor hm(3, 10.0);  // probation defaults to 0 = off
  hm.RecordTaskFailure(2, 1.0);
  hm.RecordTaskFailure(2, 1.5);
  hm.RecordTaskFailure(2, 2.0);
  ASSERT_TRUE(hm.IsReadOnly(2));
  EXPECT_TRUE(hm.ClearExpired(1e9).empty());
  EXPECT_TRUE(hm.IsReadOnly(2));
}

TEST(HealthMonitorTest, ProbationTimerResetsOnNewFailure) {
  MachineHealthMonitor hm(3, 10.0, /*probation=*/30.0);
  hm.RecordTaskFailure(7, 1.0);
  hm.RecordTaskFailure(7, 2.0);
  hm.RecordTaskFailure(7, 3.0);
  ASSERT_TRUE(hm.IsReadOnly(7));
  // A failure while drained pushes the probation deadline out.
  hm.RecordTaskFailure(7, 20.0);
  EXPECT_TRUE(hm.ClearExpired(33.0).empty());
  EXPECT_TRUE(hm.IsReadOnly(7));
  EXPECT_EQ(hm.ClearExpired(50.0), std::vector<int>{7});
}

}  // namespace
}  // namespace swift
