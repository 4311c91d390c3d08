#include "service/job_service.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "sql/planner.h"

namespace swift {

const JobOutcome& JobTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_; });
  return outcome_;
}

bool JobTicket::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void JobTicket::Deliver(JobOutcome outcome) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    outcome_ = std::move(outcome);
    done_ = true;
  }
  cv_.notify_all();
}

JobService::JobService(JobServiceConfig config)
    : config_(std::move(config)),
      runtime_(std::make_unique<LocalRuntime>(config_.runtime)),
      admit_policy_(config_.runtime.fair_share) {
  if (config_.runtime.metrics != nullptr) {
    obs::MetricsRegistry* reg = config_.runtime.metrics;
    m_submitted_ = reg->counter("service.jobs.submitted");
    m_admitted_ = reg->counter("service.jobs.admitted");
    m_rejected_ = reg->counter("service.jobs.rejected");
    m_completed_ = reg->counter("service.jobs.completed");
    m_failed_ = reg->counter("service.jobs.failed");
    m_queue_depth_ = reg->gauge("service.queue.depth");
    m_running_ = reg->gauge("service.running");
    m_queue_wait_ = reg->series("service.queue.wait_s");
    m_latency_ = reg->series("service.job.latency_s");
  }
  const int drivers = std::max(1, config_.max_concurrent_jobs);
  drivers_.reserve(static_cast<std::size_t>(drivers));
  for (int i = 0; i < drivers; ++i) {
    drivers_.emplace_back([this] { DriverLoop(); });
  }
}

JobService::~JobService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : drivers_) t.join();
}

Result<std::shared_ptr<JobTicket>> JobService::Submit(JobRequest request) {
  std::shared_ptr<JobTicket> ticket = std::make_shared<JobTicket>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.submitted += 1;
    obs::Add(m_submitted_);
    if (stopping_) {
      counters_.rejected += 1;
      obs::Add(m_rejected_);
      return Status::Cancelled("job service is shutting down");
    }
    if (static_cast<int>(queue_.size()) >= config_.admission_queue_capacity) {
      counters_.rejected += 1;
      obs::Add(m_rejected_);
      return Status::Backpressure(StrFormat(
          "admission queue full (%d pending jobs); retry later",
          config_.admission_queue_capacity));
    }
    Pending p;
    p.ticket = ticket;
    p.submitted_at = std::chrono::steady_clock::now();
    admit_policy_.Activate(request.tenant);
    p.entry = {request.tenant, request.priority, admit_policy_.NextSeq()};
    p.request = std::move(request);
    queue_.push_back(std::move(p));
    obs::Set(m_queue_depth_, static_cast<double>(queue_.size()));
  }
  cv_work_.notify_one();
  return ticket;
}

Result<JobOutcome> JobService::RunSync(JobRequest request) {
  SWIFT_ASSIGN_OR_RETURN(std::shared_ptr<JobTicket> ticket,
                         Submit(std::move(request)));
  return ticket->Wait();
}

void JobService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

JobService::Stats JobService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = counters_;
  s.queue_depth = static_cast<int>(queue_.size());
  s.running = running_;
  return s;
}

void JobService::DriverLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      // Fair-share admission: the policy picks across tenants by
      // virtual time, within a tenant by priority then FIFO.
      std::vector<FairSharePolicy::Entry> entries;
      entries.reserve(queue_.size());
      for (const Pending& p : queue_) entries.push_back(p.entry);
      const std::size_t idx = admit_policy_.PickIndex(entries);
      pending = std::move(queue_[idx]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
      admit_policy_.Charge(pending.entry.tenant, pending.entry.priority,
                           1.0);
      running_ += 1;
      counters_.admitted += 1;
      obs::Add(m_admitted_);
      obs::Set(m_queue_depth_, static_cast<double>(queue_.size()));
      obs::Set(m_running_, static_cast<double>(running_));
    }
    Execute(std::move(pending));
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_ -= 1;
      obs::Set(m_running_, static_cast<double>(running_));
      if (queue_.empty() && running_ == 0) cv_idle_.notify_all();
    }
  }
}

void JobService::Execute(Pending pending) {
  const auto admitted_at = std::chrono::steady_clock::now();
  JobOutcome out;
  out.tenant = pending.request.tenant;
  out.queue_wait_s =
      std::chrono::duration<double>(admitted_at - pending.submitted_at)
          .count();
  obs::Record(m_queue_wait_, out.queue_wait_s);

  Result<DistributedPlan> plan = PlanSql(
      pending.request.sql, *runtime_->catalog(), pending.request.planner);
  if (!plan.ok()) {
    out.status = plan.status();
  } else {
    JobRunOptions opts;
    opts.tenant = pending.request.tenant;
    opts.priority = pending.request.priority;
    opts.label = pending.request.label;
    Result<JobRunReport> report = runtime_->RunPlan(*plan, opts);
    if (report.ok()) {
      out.report = std::move(*report);
    } else {
      out.status = report.status();
    }
  }
  out.latency_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - pending.submitted_at)
                      .count();
  obs::Record(m_latency_, out.latency_s);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (out.status.ok()) {
      counters_.completed += 1;
      obs::Add(m_completed_);
    } else {
      counters_.failed += 1;
      obs::Add(m_failed_);
    }
  }
  pending.ticket->Deliver(std::move(out));
}

}  // namespace swift
