#ifndef SWIFT_SCHEDULER_GANG_ARBITER_H_
#define SWIFT_SCHEDULER_GANG_ARBITER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "dag/job_dag.h"
#include "obs/metrics.h"
#include "scheduler/fair_share.h"
#include "scheduler/resource_pool.h"

namespace swift {

/// \brief Who a job runs for, as seen by the gang arbiter: tenant
/// identity and priority class order its gang requests against every
/// other in-flight job's (DESIGN.md Sec. 16).
struct JobRunOptions {
  std::string tenant = "default";
  /// Priority class, clamped to [0, 8]. Higher classes order first
  /// within a tenant, are charged less virtual time (a 2x share boost
  /// per class), and may trigger cooperative preemption of running
  /// lower-class gangs.
  int priority = 0;
  /// Span label for the job-level trace span ("" = "job<id>").
  std::string label;
};

/// \brief Watchdog on one blocking gang acquisition. A feasible gang
/// only waits while other jobs hold executors, and every holder releases
/// at its graphlet (or wave, under preemption) boundary, so this never
/// fires in a healthy cluster; it turns a scheduling bug into a failed
/// job instead of a hung driver thread.
inline constexpr double kGangAcquireWatchdogSeconds = 120.0;

struct GangArbiterConfig {
  int machines = 4;
  int executors_per_machine = 64;
  FairShareConfig fair_share;
  /// Metrics sink (not owned, may be null): service.preemptions,
  /// service.gang.wait_s, service.gang.waiters, and per-tenant
  /// service.tenant.<name>.gang_units.
  obs::MetricsRegistry* metrics = nullptr;
};

/// \brief The Resource Scheduler's gang arbiter (Fig. 2): ONE
/// ResourcePool of pre-launched executors shared by every in-flight job,
/// with gang grants ordered by weighted fair queuing over tenants and
/// cooperative preemption of lower priority classes. The runtime and the
/// cluster simulator both admit graphlets through it, so the figures and
/// the system run one admission discipline (DESIGN.md Sec. 16.3).
///
/// Decision surface: non-blocking and clock-free. RequestGang registers a
/// waiter; GrantHead picks the fairness head (FairSharePolicy::PickIndex
/// over each tenant's first waiter) and grants it when its gang fits the
/// pool. Strict head-of-line service is what makes large gangs
/// starvation-free — backfilling smaller gangs around a big waiter would
/// be work-conserving but could starve it indefinitely — so when the
/// head does not fit, nothing is granted and running lower-class jobs are
/// asked to yield. A gang larger than the schedulable executors (live,
/// non-read-only machines, busy or free) fails fast with
/// ResourceExhausted: at RequestGang, or, if the cluster shrank after
/// that, as the head's decision. An event loop drives this surface
/// directly, calling GrantHead after every event until it returns
/// nothing; the grants go to whoever calls it, so such a loop owns its
/// arbiter and never mixes with AcquireGang callers.
///
/// AcquireGang is the blocking shell over the same surface for driver
/// threads: every parked caller runs the grant loop when woken, hands
/// each decision to its ticket's owner, and gives up only after the
/// kGangAcquireWatchdogSeconds watchdog.
///
/// Deadlock-freedom: a runtime job holds at most one gang and never waits
/// while holding (it acquires, runs the graphlet, releases), so the
/// head's wait is always on jobs that release in bounded time. A job
/// alone on the cluster therefore gets exactly ResourcePool::AllocateGang's
/// answer at once.
///
/// Threading contract: one job calls BeginJob / AcquireGang /
/// ReleaseGang / EndJob from its own driver thread. Machine-state calls
/// (Revoke/Restore/SetReadOnly) may come from any thread, including
/// while the runtime holds its own mutex, so the arbiter never calls
/// back into the runtime.
class GangArbiter {
 public:
  /// One registered gang request; also its FIFO sequence number.
  using Ticket = uint64_t;
  /// \brief The decision GrantHead made for one waiter.
  struct Grant {
    Ticket ticket = 0;
    JobId job = 0;
    /// The gang, or ResourceExhausted when the cluster shrank below the
    /// request while it waited.
    Result<std::vector<ExecutorId>> gang;
  };

  explicit GangArbiter(GangArbiterConfig config);

  /// \brief A job was admitted to the scheduling loop.
  void BeginJob(JobId job, const JobRunOptions& opts);
  /// \brief The job left the scheduling loop (completed, failed or, in
  /// the simulator, restarted); its waiters are withdrawn.
  void EndJob(JobId job);

  /// \brief Registers a waiter for `prefs.size()` executors. Fails fast
  /// with ResourceExhausted when the gang exceeds every schedulable
  /// executor.
  Result<Ticket> RequestGang(JobId job, std::vector<LocalityPref> prefs);
  /// \brief Decides the fairness head: its grant, or its failure when the
  /// cluster shrank below it. Nothing (nullopt) when there are no waiters
  /// or the head's gang does not fit the free executors.
  std::optional<Grant> GrantHead();

  /// \brief Gang allocation: all `prefs.size()` executors or an error.
  /// Blocks while other jobs hold the capacity; a gang that can never
  /// fit fails at once with ResourceExhausted.
  Result<std::vector<ExecutorId>> AcquireGang(
      JobId job, const std::vector<LocalityPref>& prefs);
  /// \brief Returns a gang to the pool (also clears any pending yield
  /// request against `job`).
  void ReleaseGang(JobId job, const std::vector<ExecutorId>& gang);
  /// \brief Cooperative preemption poll: true asks `job` to release its
  /// gang at the next wave boundary and re-queue.
  bool ShouldYield(JobId job);

  /// \brief Machine lifecycle fan-in (machine death / repair / drain).
  /// RevokeMachine returns false when the machine was already revoked.
  bool RevokeMachine(int machine);
  void RestoreMachine(int machine);
  void SetReadOnly(int machine, bool read_only);

  /// \brief Yield requests issued to running jobs (test introspection).
  int64_t preemptions() const;
  /// \brief Executor-grant units (sum of granted gang sizes) per tenant;
  /// the share each tenant actually received, for fairness assertions.
  std::map<std::string, double> TenantGangUnits() const;

 private:
  struct JobInfo {
    std::string tenant = "default";
    int priority = 0;
    bool yield_requested = false;
    int holding = 0;  ///< executors currently held over all its gangs
    std::set<Ticket> waiting;  ///< its registered, undecided requests
  };
  struct Waiter {
    JobId job = 0;
    std::vector<LocalityPref> prefs;
  };

  Result<Ticket> RequestGangLocked(JobId job, std::vector<LocalityPref> prefs);
  std::optional<Grant> GrantHeadLocked();
  void WithdrawLocked(Ticket ticket);
  /// Ask running lower-class jobs to yield until `need` could fit.
  void RequestPreemptionLocked(const JobInfo& claimant);
  Status CannotFit(std::size_t need) const;

  const GangArbiterConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  ResourcePool pool_;
  FairSharePolicy policy_;
  std::map<JobId, JobInfo> jobs_;
  std::map<Ticket, Waiter> waiters_;
  /// Each tenant's waiters in service order, (-priority, ticket): the
  /// first is the tenant's candidate for PickIndex. Tenants without
  /// waiters have no entry.
  std::map<std::string, std::set<std::pair<int, Ticket>>> queues_;
  /// Decisions the grant loop made for parked AcquireGang callers.
  std::map<Ticket, Result<std::vector<ExecutorId>>> outcomes_;
  int64_t preemptions_ = 0;
  std::map<std::string, double> tenant_units_;
  std::map<std::string, obs::Counter*> tenant_unit_counters_;
  obs::Counter* m_preemptions_ = nullptr;
  obs::Series* m_gang_wait_ = nullptr;
  obs::Gauge* m_waiters_ = nullptr;
};

}  // namespace swift

#endif  // SWIFT_SCHEDULER_GANG_ARBITER_H_
