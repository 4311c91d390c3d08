#include <gtest/gtest.h>

#include "dag/dag_builder.h"
#include "scheduler/resource_pool.h"
#include "scheduler/task_tracker.h"

namespace swift {
namespace {

using OK = OperatorKind;

TEST(ResourcePoolTest, CountsAndBasicAllocation) {
  ResourcePool pool(4, 8);
  EXPECT_EQ(pool.total_executors(), 32);
  EXPECT_EQ(pool.free_executors(), 32);
  auto gang = pool.AllocateGang(std::vector<LocalityPref>(10));
  ASSERT_TRUE(gang.ok());
  EXPECT_EQ(gang->size(), 10u);
  EXPECT_EQ(pool.free_executors(), 22);
  pool.ReleaseAll(*gang);
  EXPECT_EQ(pool.free_executors(), 32);
}

TEST(ResourcePoolTest, GangIsAllOrNothing) {
  ResourcePool pool(2, 2);
  auto too_big = pool.AllocateGang(std::vector<LocalityPref>(5));
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
  // Nothing leaked by the failed attempt.
  EXPECT_EQ(pool.free_executors(), 4);
  auto exact = pool.AllocateGang(std::vector<LocalityPref>(4));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(pool.free_executors(), 0);
}

TEST(ResourcePoolTest, LocalityPreferenceHonored) {
  ResourcePool pool(4, 4);
  auto gang = pool.AllocateGang({{2}, {2}, {2}});
  ASSERT_TRUE(gang.ok());
  for (const ExecutorId& e : *gang) EXPECT_EQ(e.machine, 2);
}

TEST(ResourcePoolTest, FallsBackToLeastLoadedWhenPreferredFull) {
  ResourcePool pool(2, 2);
  auto first = pool.AllocateGang({{0}, {0}});
  ASSERT_TRUE(first.ok());
  // Machine 0 is full; preference falls through to machine 1.
  auto second = pool.AllocateGang({{0}});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)[0].machine, 1);
}

TEST(ResourcePoolTest, LoadBalancesUnconstrainedTasks) {
  ResourcePool pool(4, 4);
  auto gang = pool.AllocateGang(std::vector<LocalityPref>(4));
  ASSERT_TRUE(gang.ok());
  // "The most free machine is chosen": 4 tasks spread over 4 machines.
  std::set<int> machines;
  for (const ExecutorId& e : *gang) machines.insert(e.machine);
  EXPECT_EQ(machines.size(), 4u);
}

TEST(ResourcePoolTest, ReadOnlyMachineReceivesNoTasks) {
  ResourcePool pool(2, 4);
  pool.SetReadOnly(0, true);
  EXPECT_TRUE(pool.IsReadOnly(0));
  EXPECT_EQ(pool.free_executors(), 4);
  auto gang = pool.AllocateGang({{0}, {0}});
  ASSERT_TRUE(gang.ok());
  for (const ExecutorId& e : *gang) EXPECT_EQ(e.machine, 1);
  pool.SetReadOnly(0, false);
  EXPECT_EQ(pool.free_executors(), 4 + 2);
}

TEST(ResourcePoolTest, RevokeMachineReturnsBusyExecutors) {
  ResourcePool pool(2, 2);
  auto gang = pool.AllocateGang({{0}, {0}});
  ASSERT_TRUE(gang.ok());
  auto busy = pool.RevokeMachine(0);
  EXPECT_EQ(busy.size(), 2u);
  EXPECT_EQ(pool.free_on_machine(0), 0);
  // Releasing executors of a revoked machine is a no-op.
  pool.ReleaseAll(*gang);
  EXPECT_EQ(pool.free_executors(), 2);
  pool.RestoreMachine(0);
  EXPECT_EQ(pool.free_executors(), 4);
}

TEST(ResourcePoolTest, RevokeMachineIsIdempotent) {
  ResourcePool pool(2, 2);
  auto gang = pool.AllocateGang({{0}, {0}});
  ASSERT_TRUE(gang.ok());
  EXPECT_EQ(pool.RevokeMachine(0).size(), 2u);
  // A second revocation while the machine stays down finds no busy
  // executors — nothing was running there anymore.
  EXPECT_TRUE(pool.RevokeMachine(0).empty());
  EXPECT_EQ(pool.free_on_machine(0), 0);
  pool.RestoreMachine(0);
  EXPECT_EQ(pool.free_executors(), 4);
}

JobDag ChainDag() {
  DagBuilder b("chain");
  StageId a = b.AddStage("a", 1, {OK::kMergeSort});
  StageId c = b.AddStage("c", 1, {OK::kMergeSort});
  StageId d = b.AddStage("d", 1, {OK::kAdhocSink});
  b.AddEdge(a, c).AddEdge(c, d);
  return std::move(b.Build()).ValueOrDie();
}

TEST(TaskTrackerTest, StageCompletion) {
  JobDag dag = ChainDag();
  TaskTracker tracker(&dag);
  for (StageId s : {0, 1, 2}) {
    EXPECT_EQ(tracker.state(TaskRef{s, 0}), TaskState::kPending);
  }
  EXPECT_FALSE(tracker.StageComplete(0));
  tracker.SetState(TaskRef{0, 0}, TaskState::kRunning);
  tracker.SetState(TaskRef{0, 0}, TaskState::kCompleted);
  EXPECT_TRUE(tracker.StageComplete(0));
  EXPECT_FALSE(tracker.AllComplete());
  tracker.SetState(TaskRef{1, 0}, TaskState::kCompleted);
  tracker.SetState(TaskRef{2, 0}, TaskState::kCompleted);
  EXPECT_TRUE(tracker.AllComplete());
  EXPECT_EQ(tracker.CompletedTasks().size(), 3u);
}

TEST(TaskTrackerTest, ResetUndoesCompletion) {
  JobDag dag = ChainDag();
  TaskTracker tracker(&dag);
  tracker.SetState(TaskRef{0, 0}, TaskState::kCompleted);
  EXPECT_TRUE(tracker.StageComplete(0));
  tracker.Reset(TaskRef{0, 0});
  EXPECT_FALSE(tracker.StageComplete(0));
  EXPECT_EQ(tracker.state(TaskRef{0, 0}), TaskState::kPending);
}

TEST(TaskTrackerTest, UnknownTaskIsInert) {
  JobDag dag = ChainDag();
  TaskTracker tracker(&dag);
  tracker.SetState(TaskRef{99, 0}, TaskState::kCompleted);  // ignored
  EXPECT_EQ(tracker.state(TaskRef{99, 0}), TaskState::kPending);
}

}  // namespace
}  // namespace swift
