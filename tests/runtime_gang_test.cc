#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/serde.h"
#include "exec/tpch.h"
#include "obs/metrics.h"
#include "partition/partitioners.h"
#include "runtime/local_runtime.h"
#include "sql/planner.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace {

// One gang arbiter per runtime (DESIGN.md Sec. 16.1): a bare
// LocalRuntime takes every graphlet's gang from its own GangArbiter over
// ONE executor pool, exactly as jobs submitted through the JobService
// do. A job alone on the cluster gets the pool's answer at once;
// concurrent RunPlan calls queue for the same executors.

void GenerateTinyTpch(Catalog* catalog) {
  TpchConfig tpch;
  tpch.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(tpch, catalog).ok());
}

// Executors in each graphlet's gang, in graphlet id order; with
// `roots_only`, only graphlets that depend on no other (the first ones
// a job submits).
std::vector<int64_t> GangSizes(const DistributedPlan& plan,
                               bool roots_only = false) {
  auto graphlets = ShuffleModeAwarePartitioner().Partition(plan.dag);
  EXPECT_TRUE(graphlets.ok()) << graphlets.status().ToString();
  std::vector<int64_t> sizes;
  if (!graphlets.ok()) return sizes;
  for (const Graphlet& g : graphlets->graphlets) {
    if (roots_only &&
        !graphlets->deps[static_cast<std::size_t>(g.id)].empty()) {
      continue;
    }
    sizes.push_back(g.TotalTasks(plan.dag));
  }
  return sizes;
}

// A graphlet whose gang exceeds every schedulable executor fails at
// once with ResourceExhausted, the answer AllocateGang gives on an idle
// pool, instead of parking as a waiter until the acquire watchdog fires.
TEST(RuntimeGangTest, OversizedGangFailsFastOnBareRuntime) {
  LocalRuntimeConfig cfg;
  cfg.machines = 2;
  cfg.executors_per_machine = 1;
  cfg.worker_threads = 2;
  LocalRuntime rt(cfg);
  GenerateTinyTpch(rt.catalog());
  // Many small scan tasks: the graphlet holding the scan stage, the
  // first one the job submits, needs more executors than the cluster's 2.
  PlannerConfig pc;
  pc.rows_per_scan_task = 100;
  auto plan = PlanSql("select count(*) from tpch_lineitem", *rt.catalog(), pc);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::vector<int64_t> roots = GangSizes(*plan, /*roots_only=*/true);
  ASSERT_FALSE(roots.empty());
  ASSERT_GT(*std::min_element(roots.begin(), roots.end()),
            cfg.machines * cfg.executors_per_machine)
      << "the first gang submitted must exceed the cluster";

  const auto t0 = std::chrono::steady_clock::now();
  auto report = rt.RunPlan(*plan);
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsResourceExhausted())
      << report.status().ToString();
  EXPECT_NE(report.status().ToString().find("raise executors_per_machine"),
            std::string::npos)
      << report.status().ToString();
  EXPECT_LT(elapsed_s, 1.0) << "waited instead of failing fast";
}

// Concurrent bare RunPlan calls share the cluster's executors: each
// gang fits alone but the jobs' gangs together exceed the pool, so jobs
// queue in the arbiter. Every job completes with the bytes a serial run
// produces, and every acquisition is recorded in service.gang.wait_s.
TEST(RuntimeGangTest, ConcurrentBareJobsQueueOnOneSharedPool) {
  std::map<int, DistributedPlan> plans;
  int64_t largest = 0;
  {
    Catalog catalog;
    GenerateTinyTpch(&catalog);
    for (int q : RunnableTpchQueries()) {
      auto sql = TpchQuerySql(q);
      ASSERT_TRUE(sql.ok());
      auto plan = PlanSql(*sql, catalog);
      ASSERT_TRUE(plan.ok()) << "Q" << q << ": " << plan.status().ToString();
      for (int64_t size : GangSizes(*plan)) largest = std::max(largest, size);
      plans.emplace(q, std::move(*plan));
    }
  }
  LocalRuntimeConfig cfg;
  cfg.machines = 2;
  // Capacity is the largest gang rounded up to the machine count: each
  // gang fits alone, two of the largest never fit together.
  cfg.executors_per_machine =
      static_cast<int>((largest + cfg.machines - 1) / cfg.machines);
  cfg.worker_threads = 4;
  const int64_t capacity = int64_t{cfg.machines} * cfg.executors_per_machine;
  ASSERT_LT(capacity, 2 * largest);

  std::map<int, std::string> oracle;
  {
    LocalRuntime serial(cfg);
    GenerateTinyTpch(serial.catalog());
    for (const auto& [q, plan] : plans) {
      auto report = serial.RunPlan(plan);
      ASSERT_TRUE(report.ok()) << "Q" << q << ": "
                               << report.status().ToString();
      oracle[q] = SerializeBatch(report->result);
    }
  }

  obs::MetricsRegistry reg;
  cfg.metrics = &reg;
  LocalRuntime rt(cfg);
  GenerateTinyTpch(rt.catalog());
  constexpr int kThreads = 4;
  std::atomic<int64_t> graphlets{0};
  std::atomic<int64_t> gang_units{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> runners;
  for (int t = 0; t < kThreads; ++t) {
    runners.emplace_back([&, t] {
      // Each thread walks the queries from a different offset so the
      // in-flight mix stays heterogeneous.
      std::vector<int> order;
      for (const auto& [q, plan] : plans) order.push_back(q);
      std::rotate(order.begin(),
                  order.begin() + (t * 3) % static_cast<int>(order.size()),
                  order.end());
      for (int q : order) {
        const DistributedPlan& plan = plans.at(q);
        auto report = rt.RunPlan(plan);
        ASSERT_TRUE(report.ok()) << "Q" << q << ": "
                                 << report.status().ToString();
        graphlets.fetch_add(report->stats.graphlets);
        for (int64_t size : GangSizes(plan)) gang_units.fetch_add(size);
        if (SerializeBatch(report->result) != oracle.at(q)) {
          mismatches.fetch_add(1);
          ADD_FAILURE() << "Q" << q << " bytes diverged on the shared pool";
        }
      }
    });
  }
  for (std::thread& t : runners) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const obs::MetricsRegistry::Snapshot snap = reg.TakeSnapshot();
  ASSERT_EQ(snap.series.count("service.gang.wait_s"), 1u);
  EXPECT_EQ(static_cast<int64_t>(snap.series.at("service.gang.wait_s").size()),
            graphlets.load())
      << "one wait sample per gang acquisition";
  EXPECT_EQ(reg.CounterValue("service.tenant.default.gang_units"),
            gang_units.load())
      << "every executor grant came from the runtime's one arbiter";
  EXPECT_EQ(rt.arbiter()->TenantGangUnits().at("default"),
            static_cast<double>(gang_units.load()));
  EXPECT_EQ(rt.arbiter()->preemptions(), 0) << "equal classes never preempt";
}

}  // namespace
}  // namespace swift
