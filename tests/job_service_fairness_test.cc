#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/tpch.h"
#include "obs/trace_recorder.h"
#include "scheduler/fair_share.h"
#include "scheduler/gang_arbiter.h"
#include "service/job_service.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace {

// Fairness properties of the multi-tenant job service (DESIGN.md
// Sec. 16): weighted fair queuing over tenants, strict priority within
// a tenant, no starvation, and deterministic scheduling decisions.

// ---------------------------------------------------------------------
// FairSharePolicy unit properties.

std::vector<FairSharePolicy::Entry> RandomEntries(FairSharePolicy* policy,
                                                  Rng* rng, int n) {
  const std::vector<std::string> tenants = {"a", "b", "c", "d"};
  std::vector<FairSharePolicy::Entry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FairSharePolicy::Entry e;
    e.tenant = tenants[static_cast<std::size_t>(
        rng->UniformInt(0, static_cast<int64_t>(tenants.size()) - 1))];
    e.priority = static_cast<int>(rng->UniformInt(0, 2));
    e.seq = policy->NextSeq();
    policy->Activate(e.tenant);
    entries.push_back(std::move(e));
  }
  return entries;
}

// Draining a randomized backlog twice with the same seed must produce
// the same service order — the policy has no hidden nondeterminism.
TEST(FairSharePolicy, DeterministicUnderFixedSeed) {
  std::vector<std::vector<std::string>> orders;
  for (int round = 0; round < 2; ++round) {
    FairSharePolicy policy;
    Rng rng(20210419);
    std::vector<FairSharePolicy::Entry> pending =
        RandomEntries(&policy, &rng, 64);
    std::vector<std::string> order;
    while (!pending.empty()) {
      const std::size_t i = policy.PickIndex(pending);
      order.push_back(pending[i].tenant + "/p" +
                      std::to_string(pending[i].priority) + "/s" +
                      std::to_string(pending[i].seq));
      policy.Charge(pending[i].tenant, pending[i].priority, 1.0);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
    orders.push_back(std::move(order));
  }
  EXPECT_EQ(orders[0], orders[1]);
}

// Within one tenant, a higher priority class is always served before a
// lower one regardless of arrival order — no priority inversion.
TEST(FairSharePolicy, NoPriorityInversionWithinTenant) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    FairSharePolicy policy;
    policy.Activate("t");
    std::vector<FairSharePolicy::Entry> pending;
    const int n = static_cast<int>(rng.UniformInt(2, 12));
    for (int i = 0; i < n; ++i) {
      pending.push_back({"t", static_cast<int>(rng.UniformInt(0, 3)),
                         policy.NextSeq()});
    }
    int last_priority = 9;
    while (!pending.empty()) {
      const std::size_t i = policy.PickIndex(pending);
      EXPECT_LE(pending[i].priority, last_priority)
          << "priority " << pending[i].priority << " served after "
          << last_priority;
      last_priority = pending[i].priority;
      policy.Charge("t", pending[i].priority, 1.0);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

// Under a saturated backlog with equal weights, service counts per
// tenant stay within a bounded error of the ideal equal split — and no
// tenant is starved outright.
TEST(FairSharePolicy, BoundedShareErrorUnderSaturation) {
  FairSharePolicy policy;
  Rng rng(13);
  // Keep a standing backlog of ~40 entries; serve 400.
  std::vector<FairSharePolicy::Entry> pending =
      RandomEntries(&policy, &rng, 40);
  std::map<std::string, int> served;
  const int kRounds = 400;
  for (int i = 0; i < kRounds; ++i) {
    const std::size_t pick = policy.PickIndex(pending);
    served[pending[pick].tenant] += 1;
    policy.Charge(pending[pick].tenant, pending[pick].priority, 1.0);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    // Replenish so every tenant always has pending work (saturation).
    std::vector<FairSharePolicy::Entry> more =
        RandomEntries(&policy, &rng, 1);
    pending.push_back(more[0]);
    while (pending.size() < 8) {
      more = RandomEntries(&policy, &rng, 1);
      pending.push_back(more[0]);
    }
  }
  ASSERT_EQ(served.size(), 4u) << "a tenant was starved for 400 rounds";
  for (const auto& [tenant, count] : served) {
    // Ideal share is 100 each; priorities skew effective weights, so
    // allow a wide but bounded band.
    EXPECT_GT(count, kRounds / 16) << tenant << " nearly starved";
    EXPECT_LT(count, kRounds / 2) << tenant << " dominated";
  }
}

// A tenant that was idle while others accumulated virtual time must not
// monopolize the queue when it returns: activation catches it up to the
// global virtual clock.
TEST(FairSharePolicy, IdleTenantCannotBankCredit) {
  FairSharePolicy policy;
  policy.Activate("busy");
  for (int i = 0; i < 100; ++i) policy.Charge("busy", 0, 1.0);
  // "fresh" shows up now; its virtual time starts at the global clock,
  // not zero.
  policy.Activate("fresh");
  EXPECT_GE(policy.VirtualTime("fresh"), policy.VirtualTime("busy") - 1.0);
  // Service alternates rather than running "fresh" 100 times in a row.
  std::map<std::string, int> served;
  for (int i = 0; i < 20; ++i) {
    std::vector<FairSharePolicy::Entry> pending = {
        {"busy", 0, policy.NextSeq()}, {"fresh", 0, policy.NextSeq()}};
    const std::size_t pick = policy.PickIndex(pending);
    served[pending[pick].tenant] += 1;
    policy.Charge(pending[pick].tenant, 0, 1.0);
  }
  EXPECT_GE(served["busy"], 5);
  EXPECT_GE(served["fresh"], 5);
}

// Weighted tenants receive proportional service: weight 3 vs 1 over a
// saturated backlog approaches a 3:1 split.
TEST(FairSharePolicy, WeightsScaleShares) {
  FairShareConfig cfg;
  cfg.tenant_weights["gold"] = 3.0;
  cfg.tenant_weights["bronze"] = 1.0;
  FairSharePolicy policy(cfg);
  policy.Activate("gold");
  policy.Activate("bronze");
  std::map<std::string, int> served;
  for (int i = 0; i < 200; ++i) {
    std::vector<FairSharePolicy::Entry> pending = {
        {"gold", 0, policy.NextSeq()}, {"bronze", 0, policy.NextSeq()}};
    const std::size_t pick = policy.PickIndex(pending);
    served[pending[pick].tenant] += 1;
    policy.Charge(pending[pick].tenant, 0, 1.0);
  }
  EXPECT_NEAR(static_cast<double>(served["gold"]) /
                  static_cast<double>(served["bronze"]),
              3.0, 0.5);
}

// ---------------------------------------------------------------------
// GangArbiter fairness under real thread contention.

// Three equally-weighted tenants hammer a pool that fits two gangs at a
// time; the executor-units each tenant is granted stay within a bounded
// band of the equal split, and nobody deadlocks or starves.
TEST(GangArbiter, EqualWeightTenantsSplitExecutorGrants) {
  GangArbiterConfig cfg;
  cfg.machines = 2;
  cfg.executors_per_machine = 4;  // capacity 8 = two gangs of 4
  GangArbiter arbiter(cfg);

  // Each tenant brings its own demand and all start together: with one
  // shared budget, two fast threads could spend it before the third ran.
  constexpr int kTenants = 3;
  constexpr int kGrantsPerTenant = 40;
  std::atomic<int> ready{0};
  std::atomic<JobId> next_job{1};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = "tenant-" + std::to_string(t);
      ready.fetch_add(1);
      while (ready.load() < kTenants) std::this_thread::yield();
      for (int g = 0; g < kGrantsPerTenant; ++g) {
        const JobId job = next_job.fetch_add(1);
        JobRunOptions opts;
        opts.tenant = tenant;
        arbiter.BeginJob(job, opts);
        auto gang = arbiter.AcquireGang(job, std::vector<LocalityPref>(4));
        ASSERT_TRUE(gang.ok()) << gang.status().ToString();
        std::this_thread::yield();
        arbiter.ReleaseGang(job, *gang);
        arbiter.EndJob(job);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::map<std::string, double> units = arbiter.TenantGangUnits();
  ASSERT_EQ(units.size(), static_cast<std::size_t>(kTenants));
  double total = 0.0;
  for (const auto& [tenant, u] : units) total += u;
  for (const auto& [tenant, u] : units) {
    // Equal split would be 1/3 each; require every tenant lands within
    // a generous band (catches starvation and monopolies, tolerates
    // scheduling noise).
    EXPECT_GT(u / total, 0.15) << tenant << " starved: " << u << "/" << total;
    EXPECT_LT(u / total, 0.55) << tenant << " dominated: " << u << "/"
                               << total;
  }
}

// A gang that cannot fit on the surviving cluster fails fast instead of
// blocking forever.
TEST(GangArbiter, UnsatisfiableGangFailsInsteadOfWedging) {
  GangArbiterConfig cfg;
  cfg.machines = 2;
  cfg.executors_per_machine = 2;
  GangArbiter arbiter(cfg);
  arbiter.RevokeMachine(1);
  JobRunOptions opts;
  arbiter.BeginJob(1, opts);
  auto gang = arbiter.AcquireGang(1, std::vector<LocalityPref>(3));
  ASSERT_FALSE(gang.ok());
  EXPECT_TRUE(gang.status().IsResourceExhausted())
      << gang.status().ToString();
  arbiter.EndJob(1);
}

// Preemption: a waiting higher-class job flags a running class-0 job to
// yield, and the yield request clears once the holder releases.
TEST(GangArbiter, HigherClassWaiterFlagsLowerClassHolder) {
  GangArbiterConfig cfg;
  cfg.machines = 1;
  cfg.executors_per_machine = 4;
  GangArbiter arbiter(cfg);
  JobRunOptions low;
  low.priority = 0;
  arbiter.BeginJob(1, low);
  auto held = arbiter.AcquireGang(1, std::vector<LocalityPref>(4));
  ASSERT_TRUE(held.ok());

  JobRunOptions high;
  high.priority = 2;
  arbiter.BeginJob(2, high);
  std::thread waiter([&] {
    auto gang = arbiter.AcquireGang(2, std::vector<LocalityPref>(4));
    ASSERT_TRUE(gang.ok()) << gang.status().ToString();
    arbiter.ReleaseGang(2, *gang);
  });
  // The waiter cannot fit, so it must flag job 1 to yield.
  while (!arbiter.ShouldYield(1)) std::this_thread::yield();
  EXPECT_GE(arbiter.preemptions(), 1);
  arbiter.ReleaseGang(1, *held);  // cooperative yield at wave boundary
  waiter.join();
  EXPECT_FALSE(arbiter.ShouldYield(1)) << "yield flag survived the release";
  arbiter.EndJob(2);
  arbiter.EndJob(1);
}

// ---------------------------------------------------------------------
// Service-level starvation freedom with randomized arrivals.

// Randomized multi-tenant arrivals: every admitted job completes (no
// starvation, no lost tickets), and the per-tenant completion counts
// cover every tenant.
TEST(JobService, RandomizedArrivalsAllComplete) {
  JobServiceConfig cfg;
  cfg.max_concurrent_jobs = 4;
  cfg.admission_queue_capacity = 256;
  cfg.runtime.machines = 2;
  cfg.runtime.executors_per_machine = 16;
  cfg.runtime.worker_threads = 4;
  JobService service(cfg);
  TpchConfig tpch;
  tpch.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(tpch, service.catalog()).ok());

  Rng rng(99);
  const std::vector<int> queries = RunnableTpchQueries();
  const std::vector<std::string> tenants = {"a", "b", "c"};
  std::vector<std::shared_ptr<JobTicket>> tickets;
  std::map<std::string, int> submitted_by_tenant;
  for (int i = 0; i < 48; ++i) {
    JobRequest req;
    const int q = queries[static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<int64_t>(queries.size()) - 1))];
    auto sql = TpchQuerySql(q);
    ASSERT_TRUE(sql.ok());
    req.sql = *sql;
    // Skewed arrivals: tenant "a" floods the first half.
    req.tenant = i < 24 ? "a"
                        : tenants[static_cast<std::size_t>(
                              rng.UniformInt(0, 2))];
    req.priority = static_cast<int>(rng.UniformInt(0, 2));
    submitted_by_tenant[req.tenant] += 1;
    auto ticket = service.Submit(std::move(req));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(std::move(*ticket));
  }
  std::map<std::string, int> completed_by_tenant;
  for (const auto& t : tickets) {
    const JobOutcome& out = t->Wait();
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    if (out.status.ok()) completed_by_tenant[out.tenant] += 1;
  }
  service.Drain();
  EXPECT_EQ(completed_by_tenant, submitted_by_tenant);
  const JobService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 48);
  EXPECT_EQ(stats.completed, 48);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.rejected, 0);
}

// With one driver, admission order is completion order, so job-level
// spans prove the same-tenant priority ordering end to end: a class-2
// job submitted after queued class-0 jobs runs before all of them.
TEST(JobService, HighPriorityJobOvertakesQueuedLowPriority) {
  obs::TraceRecorder tracer;
  JobServiceConfig cfg;
  cfg.max_concurrent_jobs = 1;
  cfg.runtime.machines = 2;
  cfg.runtime.executors_per_machine = 16;
  cfg.runtime.worker_threads = 2;
  cfg.runtime.tracer = &tracer;
  JobService service(cfg);
  TpchConfig tpch;
  tpch.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(tpch, service.catalog()).ok());
  auto sql = TpchQuerySql(1);
  ASSERT_TRUE(sql.ok());

  auto submit = [&](int priority, const std::string& label) {
    JobRequest req;
    req.sql = *sql;
    req.tenant = "t";
    req.priority = priority;
    req.label = label;
    auto ticket = service.Submit(std::move(req));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  };
  // Hold every executor under a job id the runtime never issues, so the
  // single driver can take at most one job (the blocker, or "urgent")
  // and then parks on its gang: every low job is still queued when
  // "urgent" arrives, and the fair-share admission policy re-orders
  // them once the executors are released.
  GangArbiter* arbiter = service.runtime()->arbiter();
  constexpr JobId kHolder = std::numeric_limits<JobId>::max();
  arbiter->BeginJob(kHolder, JobRunOptions{});
  auto held = arbiter->AcquireGang(
      kHolder, std::vector<LocalityPref>(static_cast<std::size_t>(
                   cfg.runtime.machines * cfg.runtime.executors_per_machine)));
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  constexpr int kLows = 6;
  submit(0, "blocker");
  for (int i = 0; i < kLows; ++i) submit(0, "low-" + std::to_string(i));
  submit(2, "urgent");
  arbiter->ReleaseGang(kHolder, *held);
  arbiter->EndJob(kHolder);
  service.Drain();

  std::vector<std::string> completion_order;
  for (const obs::Span& s : tracer.Spans()) {
    if (s.category == "job") completion_order.push_back(s.name);
  }
  ASSERT_EQ(completion_order.size(), static_cast<std::size_t>(kLows) + 2);
  auto pos = [&](const std::string& name) {
    for (std::size_t i = 0; i < completion_order.size(); ++i) {
      if (completion_order[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  ASSERT_GE(pos("urgent"), 0);
  for (int i = 0; i < kLows; ++i) {
    const std::string low = "low-" + std::to_string(i);
    EXPECT_GT(pos(low), pos("urgent")) << low;
  }
}

}  // namespace
}  // namespace swift
