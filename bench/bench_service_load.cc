// Multi-tenant service load benchmark (DESIGN.md Sec. 16): the Fig. 8
// arrival trace replayed open-loop through the JobService at increasing
// driver counts. "before" is drivers=1 — the pre-service contract where
// the runtime executed one RunPlan at a time, so the makespan is the
// serial sum of job runtimes. The concurrent variants interleave jobs
// over ONE shared executor pool through the runtime's GangArbiter;
// makespan drops while weighted fair queuing keeps per-tenant executor
// grants balanced and the latency tail bounded. Feeds BENCH_PR9.json.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/tpch.h"
#include "service/job_service.h"
#include "service/trace_replay.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace {

constexpr int kJobs = 64;

std::vector<std::string> SqlPool() {
  std::vector<std::string> pool;
  for (int q : RunnableTpchQueries()) {
    auto sql = TpchQuerySql(q);
    if (sql.ok()) pool.push_back(*sql);
  }
  return pool;
}

struct Outcome {
  TraceReplayReport report;
  double wall_ms = 0.0;
  int64_t preemptions = 0;
  std::map<std::string, double> tenant_units;
  std::map<std::string, int> tenant_completed;
};

Outcome RunVariant(int drivers, const std::vector<std::string>& pool) {
  JobServiceConfig cfg;
  cfg.max_concurrent_jobs = drivers;
  cfg.admission_queue_capacity = kJobs;  // nothing shed: latencies comparable
  cfg.runtime.machines = 4;
  cfg.runtime.executors_per_machine = 16;
  cfg.runtime.worker_threads = 4;
  JobService service(cfg);
  TpchConfig tpch;
  tpch.scale_factor = 0.001;
  Status st = GenerateTpch(tpch, service.catalog());
  if (!st.ok()) {
    std::fprintf(stderr, "tpch gen failed: %s\n", st.ToString().c_str());
    return Outcome{};
  }

  TraceReplayConfig rc;
  rc.trace.num_jobs = kJobs;
  rc.sql_pool = pool;
  const auto t0 = std::chrono::steady_clock::now();
  auto report = ReplayTrace(&service, rc);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (!report.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 report.status().ToString().c_str());
    return Outcome{};
  }
  Outcome out;
  out.report = *std::move(report);
  out.wall_ms = wall_ms;
  out.preemptions = service.runtime()->arbiter()->preemptions();
  out.tenant_units = service.runtime()->arbiter()->TenantGangUnits();
  out.tenant_completed = out.report.completed_by_tenant;
  return out;
}

int Run() {
  bench::Header(
      "Service load", "Fig. 8 trace replayed through the multi-tenant service",
      "one shared executor pool, fair-share gang arbitration: concurrency "
      "cuts makespan without starving any tenant (ROADMAP item 2)");

  const std::vector<std::string> pool = SqlPool();
  if (pool.empty()) {
    std::fprintf(stderr, "no runnable TPC-H queries\n");
    return 1;
  }

  bench::Row({"drivers", "wall-ms", "jobs/s", "p50-ms", "p99-ms", "p999-ms",
              "completed", "preempt"});
  Outcome widest;
  for (int drivers : {1, 2, 4, 8}) {
    const Outcome o = RunVariant(drivers, pool);
    bench::Row({std::to_string(drivers), bench::F(o.wall_ms, 1),
                bench::F(1000.0 * o.report.completed / o.wall_ms, 1),
                bench::F(o.report.latency_p50 * 1000.0, 1),
                bench::F(o.report.latency_p99 * 1000.0, 1),
                bench::F(o.report.latency_p999 * 1000.0, 1),
                std::to_string(o.report.completed),
                std::to_string(o.preemptions)});
    if (drivers == 8) widest = o;
  }

  // Fairness cut of the widest run: the executor-grant share each tenant
  // received vs the share of jobs it submitted. Equal weights, so a
  // healthy arbiter keeps grant share near submit share.
  double total_units = 0.0;
  for (const auto& [tenant, units] : widest.tenant_units) total_units += units;
  std::printf("\nper-tenant fairness at drivers=8 (equal weights):\n");
  bench::Row({"tenant", "submitted", "completed", "grant-share"});
  for (const auto& [tenant, units] : widest.tenant_units) {
    const auto sub = widest.report.submitted_by_tenant.find(tenant);
    const auto done = widest.tenant_completed.find(tenant);
    bench::Row(
        {tenant,
         std::to_string(
             sub == widest.report.submitted_by_tenant.end() ? 0 : sub->second),
         std::to_string(done == widest.tenant_completed.end() ? 0
                                                              : done->second),
         bench::F(total_units > 0 ? units / total_units : 0.0, 3)});
  }
  std::printf(
      "\n%d trace jobs, 4 tenants, open-loop arrivals, TPC-H sf 0.001 on a\n"
      "4-machine x 16-executor in-process cluster. drivers=1 is the\n"
      "pre-service serial baseline; wider variants share the same pool.\n",
      kJobs);
  return 0;
}

}  // namespace
}  // namespace swift

int main() { return swift::Run(); }
