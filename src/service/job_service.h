#ifndef SWIFT_SERVICE_JOB_SERVICE_H_
#define SWIFT_SERVICE_JOB_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/local_runtime.h"
#include "scheduler/fair_share.h"

namespace swift {

/// \brief Multi-tenant front end over one LocalRuntime (DESIGN.md
/// Sec. 16).
struct JobServiceConfig {
  /// The in-process cluster the service drives. Its GangArbiter shares
  /// ONE executor pool across all concurrent jobs, and its `fair_share`
  /// also orders the admission queue.
  LocalRuntimeConfig runtime;
  /// Driver threads == jobs executing concurrently. Admitted jobs beyond
  /// this wait in the fair-share queue.
  int max_concurrent_jobs = 4;
  /// Bounded admission queue; Submit on a full queue is rejected with
  /// kBackpressure (the PR 8 retryable admission-control signal).
  int admission_queue_capacity = 64;
};

/// \brief One job submission.
struct JobRequest {
  std::string sql;
  PlannerConfig planner;
  std::string tenant = "default";
  int priority = 0;  ///< class in [0, 8]; see JobRunOptions
  std::string label;
};

/// \brief Completion record delivered through a JobTicket.
struct JobOutcome {
  Status status = Status::OK();
  JobRunReport report;  ///< valid only when status.ok()
  std::string tenant;
  double queue_wait_s = 0.0;  ///< admission queue time
  double latency_s = 0.0;     ///< submit -> completion (queue + run)
};

/// \brief Future-like handle for one submitted job.
class JobTicket {
 public:
  /// \brief Blocks until the job completes; the outcome stays valid for
  /// the ticket's lifetime.
  const JobOutcome& Wait();
  bool Done() const;

 private:
  friend class JobService;
  void Deliver(JobOutcome outcome);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  JobOutcome outcome_;
};

/// \brief Accepts concurrent job submissions, admits them through a
/// bounded fair-share queue, and drives them over the shared runtime
/// with per-tenant weighted fair gang scheduling.
///
/// Two fairness points, one policy: the admission queue orders which
/// pending job starts next (cost 1 per admission), and the runtime's
/// GangArbiter orders which running job's graphlet gets freed executors
/// (cost = gang size). Priorities are strict within a tenant — a tenant's
/// higher class is always picked before its lower class — and act as a
/// weight boost plus preemption rights across tenants.
///
/// Metrics (service.*): jobs.{submitted,admitted,rejected,completed,
/// failed} counters, queue.depth / running gauges, queue.wait_s and
/// job.latency_s exact series (p50/p99/p999), plus the arbiter's
/// preemption and per-tenant grant instruments.
class JobService {
 public:
  explicit JobService(JobServiceConfig config = {});
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// \brief The underlying runtime (register tables on its catalog
  /// before submitting jobs that scan them).
  LocalRuntime* runtime() { return runtime_.get(); }
  Catalog* catalog() { return runtime_->catalog(); }

  /// \brief Non-blocking admission: a ticket, or kBackpressure when the
  /// admission queue is full (open-loop callers count the rejection and
  /// move on; closed-loop callers back off and retry).
  Result<std::shared_ptr<JobTicket>> Submit(JobRequest request);

  /// \brief Submit + Wait. The returned outcome carries the job's own
  /// status; only admission failures surface as an error Result.
  Result<JobOutcome> RunSync(JobRequest request);

  /// \brief Blocks until the queue is empty and no job is running.
  void Drain();

  struct Stats {
    int64_t submitted = 0;
    int64_t admitted = 0;
    int64_t rejected = 0;
    int64_t completed = 0;
    int64_t failed = 0;
    int queue_depth = 0;
    int running = 0;
  };
  Stats stats() const;

 private:
  struct Pending {
    JobRequest request;
    std::shared_ptr<JobTicket> ticket;
    std::chrono::steady_clock::time_point submitted_at;
    FairSharePolicy::Entry entry;
  };

  void DriverLoop();
  void Execute(Pending pending);

  JobServiceConfig config_;
  std::unique_ptr<LocalRuntime> runtime_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  bool stopping_ = false;
  std::deque<Pending> queue_;
  FairSharePolicy admit_policy_;
  int running_ = 0;
  Stats counters_;
  std::vector<std::thread> drivers_;

  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_running_ = nullptr;
  obs::Series* m_queue_wait_ = nullptr;
  obs::Series* m_latency_ = nullptr;
};

}  // namespace swift

#endif  // SWIFT_SERVICE_JOB_SERVICE_H_
