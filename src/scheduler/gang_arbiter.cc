#include "scheduler/gang_arbiter.h"

#include <algorithm>
#include <chrono>

#include "common/string_util.h"

namespace swift {

GangArbiter::GangArbiter(GangArbiterConfig config)
    : config_(std::move(config)),
      pool_(config_.machines, config_.executors_per_machine),
      policy_(config_.fair_share) {
  if (config_.metrics != nullptr) {
    m_preemptions_ = config_.metrics->counter("service.preemptions");
    m_gang_wait_ = config_.metrics->series("service.gang.wait_s");
    m_waiters_ = config_.metrics->gauge("service.gang.waiters");
  }
}

void GangArbiter::BeginJob(JobId job, const JobRunOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  JobInfo info;
  info.tenant = opts.tenant.empty() ? "default" : opts.tenant;
  info.priority = ClampPriority(opts.priority);
  policy_.Activate(info.tenant);
  if (config_.metrics != nullptr &&
      tenant_unit_counters_.count(info.tenant) == 0) {
    // Cardinality is bounded by the tenant roster the service was
    // configured with, not by job count.
    tenant_unit_counters_[info.tenant] = config_.metrics->counter(
        "service.tenant." + info.tenant + ".gang_units");
  }
  jobs_[job] = std::move(info);
}

void GangArbiter::EndJob(JobId job) {
  std::lock_guard<std::mutex> lock(mu_);
  jobs_.erase(job);
  // A job never ends while parked in AcquireGang, but stay defensive:
  // drop any stale waiter entry so PickIndex never sees a dead job.
  waiters_.erase(std::remove_if(waiters_.begin(), waiters_.end(),
                                [&](const Waiter& w) { return w.job == job; }),
                 waiters_.end());
  cv_.notify_all();
}

void GangArbiter::RequestPreemptionLocked(const JobInfo& claimant) {
  for (auto& [id, info] : jobs_) {
    if (info.holding == 0 || info.yield_requested) continue;
    if (info.priority >= claimant.priority) continue;
    info.yield_requested = true;
    preemptions_ += 1;
    obs::Add(m_preemptions_);
  }
}

Result<std::vector<ExecutorId>> GangArbiter::AcquireGang(
    JobId job, const std::vector<LocalityPref>& prefs) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(kGangAcquireWatchdogSeconds));
  std::unique_lock<std::mutex> lock(mu_);
  auto jit = jobs_.find(job);
  if (jit == jobs_.end()) {
    return Status::Internal("AcquireGang for a job without BeginJob");
  }
  Waiter me;
  me.job = job;
  me.need = prefs.size();
  me.entry = {jit->second.tenant, jit->second.priority, policy_.NextSeq()};
  waiters_.push_back(me);
  obs::Set(m_waiters_, static_cast<double>(waiters_.size()));
  auto unregister = [&] {
    waiters_.erase(
        std::remove_if(waiters_.begin(), waiters_.end(),
                       [&](const Waiter& w) { return w.job == job; }),
        waiters_.end());
    obs::Set(m_waiters_, static_cast<double>(waiters_.size()));
    // The fairness head may have changed: wake the room to re-elect.
    cv_.notify_all();
  };
  for (;;) {
    // The most any amount of waiting can reach: executors on live,
    // schedulable machines, busy or free.
    const int capacity = pool_.schedulable_executors();
    if (static_cast<int>(me.need) > capacity) {
      unregister();
      return Status::ResourceExhausted(StrFormat(
          "gang of %zu executors cannot fit: %d schedulable executors "
          "remain (machines dead or drained)",
          me.need, capacity));
    }
    // Strict head-of-line: only the fairness head tries to allocate.
    std::vector<FairSharePolicy::Entry> entries;
    entries.reserve(waiters_.size());
    for (const Waiter& w : waiters_) entries.push_back(w.entry);
    if (waiters_[policy_.PickIndex(entries)].job == job) {
      Result<std::vector<ExecutorId>> gang = pool_.AllocateGang(prefs);
      if (gang.ok()) {
        JobInfo& info = jobs_[job];
        policy_.Charge(info.tenant, info.priority,
                       static_cast<double>(me.need));
        tenant_units_[info.tenant] += static_cast<double>(me.need);
        auto cit = tenant_unit_counters_.find(info.tenant);
        if (cit != tenant_unit_counters_.end()) {
          obs::Add(cit->second, static_cast<int64_t>(me.need));
        }
        info.holding = static_cast<int>(me.need);
        info.yield_requested = false;
        unregister();
        obs::Record(
            m_gang_wait_,
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
        return gang;
      }
      // Capacity is busy in other jobs' gangs: flag lower classes to
      // yield at their next wave boundary, then wait for a release.
      RequestPreemptionLocked(jobs_[job]);
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      unregister();
      return Status::ResourceExhausted(StrFormat(
          "gang of %zu executors starved for %.0f s (acquire watchdog)",
          me.need, kGangAcquireWatchdogSeconds));
    }
  }
}

void GangArbiter::ReleaseGang(JobId job,
                              const std::vector<ExecutorId>& gang) {
  std::lock_guard<std::mutex> lock(mu_);
  pool_.ReleaseAll(gang);
  auto it = jobs_.find(job);
  if (it != jobs_.end()) {
    it->second.holding = 0;
    it->second.yield_requested = false;
  }
  cv_.notify_all();
}

bool GangArbiter::ShouldYield(JobId job) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job);
  return it != jobs_.end() && it->second.yield_requested;
}

void GangArbiter::RevokeMachine(int machine) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_.IsRevoked(machine)) return;
  pool_.RevokeMachine(machine);
  // Waiters re-check feasibility against the shrunk cluster.
  cv_.notify_all();
}

void GangArbiter::RestoreMachine(int machine) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!pool_.IsRevoked(machine)) return;
  pool_.RestoreMachine(machine);
  cv_.notify_all();
}

void GangArbiter::SetReadOnly(int machine, bool read_only) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_.IsReadOnly(machine) == read_only) return;
  pool_.SetReadOnly(machine, read_only);
  cv_.notify_all();
}

int64_t GangArbiter::preemptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return preemptions_;
}

std::map<std::string, double> GangArbiter::TenantGangUnits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenant_units_;
}

}  // namespace swift
