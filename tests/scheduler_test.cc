#include <gtest/gtest.h>

#include "scheduler/gang_arbiter.h"
#include "scheduler/resource_pool.h"

namespace swift {
namespace {

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

// A gang granted before a machine failure releases after the repair:
// the repair started a new incarnation whose slots a later gang may
// hold, so the stale release must not free them a second time.
TEST(ResourcePoolTest, ReleaseFromEarlierIncarnationIsIgnored) {
  ResourcePool pool(1, 2);
  auto first = pool.AllocateGang(std::vector<LocalityPref>(1));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)[0].ToString(), "m0/e0");
  pool.RevokeMachine(0);
  pool.RestoreMachine(0);
  auto second = pool.AllocateGang(std::vector<LocalityPref>(2));
  ASSERT_TRUE(second.ok());
  pool.ReleaseAll(*first);
  EXPECT_EQ(pool.free_executors(), 0);
  EXPECT_FALSE(pool.AllocateGang(std::vector<LocalityPref>(1)).ok())
      << "m0/e0 granted twice";
  pool.ReleaseAll(*second);
  EXPECT_EQ(pool.free_executors(), 2);
}

// Placement through the free-count index matches the rule it replaces:
// locality first, then the most free machine, ties to the lowest index.
TEST(ResourcePoolTest, LeastLoadedTiesGoToLowestIndex) {
  ResourcePool pool(3, 2);
  auto gang = pool.AllocateGang({{}, {}, {2}, {}, {}});
  ASSERT_TRUE(gang.ok());
  std::vector<int> machines;
  for (const ExecutorId& e : *gang) machines.push_back(e.machine);
  EXPECT_EQ(machines, (std::vector<int>{0, 1, 2, 0, 1}));
  EXPECT_EQ(pool.free_on_machine(2), 1);
  EXPECT_EQ(pool.free_executors(), 1);
}

GangArbiterConfig Cluster(int machines, int executors_per_machine) {
  GangArbiterConfig config;
  config.machines = machines;
  config.executors_per_machine = executors_per_machine;
  return config;
}

std::vector<LocalityPref> Tasks(int n) {
  return std::vector<LocalityPref>(static_cast<std::size_t>(n));
}

// The arbiter's decision surface, driven without threads the way the
// cluster simulator drives it: strict head-of-line, no backfill.
TEST(GangArbiterTest, HeadThatDoesNotFitBlocksSmallerWaiters) {
  GangArbiter arb(Cluster(2, 2));
  arb.BeginJob(1, JobRunOptions{});
  arb.BeginJob(2, JobRunOptions{});
  arb.BeginJob(3, JobRunOptions{});
  auto hog = arb.RequestGang(1, Tasks(3));
  ASSERT_TRUE(hog.ok());
  auto granted = arb.GrantHead();
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(granted->ticket, *hog);
  ASSERT_TRUE(granted->gang.ok());
  ASSERT_TRUE(arb.RequestGang(2, Tasks(2)).ok());
  auto small = arb.RequestGang(3, Tasks(1));
  ASSERT_TRUE(small.ok());
  // One executor is free and job 3 would fit, but job 2 is the head.
  EXPECT_FALSE(arb.GrantHead().has_value());
  arb.ReleaseGang(1, *granted->gang);
  auto second = arb.GrantHead();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->job, 2);
  auto third = arb.GrantHead();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->ticket, *small);
  EXPECT_FALSE(arb.GrantHead().has_value());
  EXPECT_EQ(arb.preemptions(), 0) << "equal classes never preempt";
}

TEST(GangArbiterTest, GangLargerThanSchedulableFailsFast) {
  GangArbiter arb(Cluster(2, 2));
  arb.BeginJob(1, JobRunOptions{});
  EXPECT_TRUE(arb.RequestGang(1, Tasks(5)).status().IsResourceExhausted());
  // A waiter the cluster shrinks below fails as the head's decision.
  arb.BeginJob(2, JobRunOptions{});
  auto hog = arb.RequestGang(2, Tasks(1));
  ASSERT_TRUE(hog.ok());
  auto held = arb.GrantHead();
  ASSERT_TRUE(held.has_value() && held->gang.ok());
  auto big = arb.RequestGang(1, Tasks(4));
  ASSERT_TRUE(big.ok());
  EXPECT_FALSE(arb.GrantHead().has_value());
  EXPECT_TRUE(arb.RevokeMachine(1));
  EXPECT_FALSE(arb.RevokeMachine(1)) << "already revoked";
  auto failed = arb.GrantHead();
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->ticket, *big);
  EXPECT_TRUE(failed->gang.status().IsResourceExhausted());
  EXPECT_FALSE(arb.GrantHead().has_value());
}

TEST(GangArbiterTest, EndJobWithdrawsItsWaiters) {
  GangArbiter arb(Cluster(1, 2));
  arb.BeginJob(1, JobRunOptions{});
  arb.BeginJob(2, JobRunOptions{});
  auto hog = arb.RequestGang(1, Tasks(2));
  ASSERT_TRUE(hog.ok());
  auto held = arb.GrantHead();
  ASSERT_TRUE(held.has_value() && held->gang.ok());
  ASSERT_TRUE(arb.RequestGang(1, Tasks(2)).ok());
  auto other = arb.RequestGang(2, Tasks(1));
  ASSERT_TRUE(other.ok());
  arb.ReleaseGang(1, *held->gang);
  arb.EndJob(1);
  auto next = arb.GrantHead();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->ticket, *other);
}

}  // namespace
}  // namespace swift
