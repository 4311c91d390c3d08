#include "scheduler/gang_arbiter.h"

#include <algorithm>
#include <chrono>

#include "common/macros.h"
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
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  // A runtime job never ends while parked in AcquireGang; a simulated
  // one may end (abort, restart) with graphlets still queued.
  const std::set<Ticket> waiting = it->second.waiting;
  for (Ticket t : waiting) WithdrawLocked(t);
  jobs_.erase(it);
  cv_.notify_all();
}

Status GangArbiter::CannotFit(std::size_t need) const {
  return Status::ResourceExhausted(StrFormat(
      "gang of %zu executors cannot fit: %d schedulable executors "
      "remain (machines dead or drained)",
      need, pool_.schedulable_executors()));
}

Result<GangArbiter::Ticket> GangArbiter::RequestGang(
    JobId job, std::vector<LocalityPref> prefs) {
  std::lock_guard<std::mutex> lock(mu_);
  return RequestGangLocked(job, std::move(prefs));
}

Result<GangArbiter::Ticket> GangArbiter::RequestGangLocked(
    JobId job, std::vector<LocalityPref> prefs) {
  auto jit = jobs_.find(job);
  if (jit == jobs_.end()) {
    return Status::Internal("gang request for a job without BeginJob");
  }
  // The most any amount of waiting can reach: executors on live,
  // schedulable machines, busy or free.
  if (prefs.size() >
      static_cast<std::size_t>(pool_.schedulable_executors())) {
    return CannotFit(prefs.size());
  }
  JobInfo& info = jit->second;
  const Ticket ticket = policy_.NextSeq();
  queues_[info.tenant].emplace(-info.priority, ticket);
  waiters_.emplace(ticket, Waiter{job, std::move(prefs)});
  info.waiting.insert(ticket);
  obs::Set(m_waiters_, static_cast<double>(waiters_.size()));
  return ticket;
}

void GangArbiter::WithdrawLocked(Ticket ticket) {
  auto it = waiters_.find(ticket);
  if (it == waiters_.end()) return;
  JobInfo& info = jobs_.at(it->second.job);
  auto qit = queues_.find(info.tenant);
  qit->second.erase({-info.priority, ticket});
  if (qit->second.empty()) queues_.erase(qit);
  info.waiting.erase(ticket);
  waiters_.erase(it);
  obs::Set(m_waiters_, static_cast<double>(waiters_.size()));
}

void GangArbiter::RequestPreemptionLocked(const JobInfo& claimant) {
  if (claimant.priority == 0) return;  // no lower class exists
  for (auto& [id, info] : jobs_) {
    if (info.holding == 0 || info.yield_requested) continue;
    if (info.priority >= claimant.priority) continue;
    info.yield_requested = true;
    preemptions_ += 1;
    obs::Add(m_preemptions_);
  }
}

std::optional<GangArbiter::Grant> GangArbiter::GrantHead() {
  std::lock_guard<std::mutex> lock(mu_);
  return GrantHeadLocked();
}

std::optional<GangArbiter::Grant> GangArbiter::GrantHeadLocked() {
  if (queues_.empty()) return std::nullopt;
  // Each tenant's first waiter is what PickIndex would choose within
  // that tenant, so picking among them picks the head of every waiter.
  std::vector<FairSharePolicy::Entry> heads;
  heads.reserve(queues_.size());
  for (const auto& [tenant, queue] : queues_) {
    const auto& [neg_priority, ticket] = *queue.begin();
    heads.push_back({tenant, -neg_priority, ticket});
  }
  const Ticket ticket = heads[policy_.PickIndex(heads)].seq;
  const Waiter& w = waiters_.at(ticket);
  const std::size_t need = w.prefs.size();
  JobInfo& info = jobs_.at(w.job);
  if (need > static_cast<std::size_t>(pool_.schedulable_executors())) {
    Grant failed{ticket, w.job, CannotFit(need)};
    WithdrawLocked(ticket);
    return failed;
  }
  Result<std::vector<ExecutorId>> gang = pool_.AllocateGang(w.prefs);
  if (!gang.ok()) {
    // Capacity is busy in other jobs' gangs: flag lower classes to
    // yield at their next wave boundary, then wait for a release.
    RequestPreemptionLocked(info);
    return std::nullopt;
  }
  policy_.Charge(info.tenant, info.priority, static_cast<double>(need));
  tenant_units_[info.tenant] += static_cast<double>(need);
  auto cit = tenant_unit_counters_.find(info.tenant);
  if (cit != tenant_unit_counters_.end()) {
    obs::Add(cit->second, static_cast<int64_t>(need));
  }
  info.holding += static_cast<int>(need);
  info.yield_requested = false;
  Grant granted{ticket, w.job, std::move(gang)};
  WithdrawLocked(ticket);
  return granted;
}

Result<std::vector<ExecutorId>> GangArbiter::AcquireGang(
    JobId job, const std::vector<LocalityPref>& prefs) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(kGangAcquireWatchdogSeconds));
  std::unique_lock<std::mutex> lock(mu_);
  SWIFT_ASSIGN_OR_RETURN(const Ticket me, RequestGangLocked(job, prefs));
  for (;;) {
    // Whoever wakes runs the grant loop; each decision waits in
    // outcomes_ for its owner.
    bool decided_other = false;
    while (std::optional<Grant> grant = GrantHeadLocked()) {
      decided_other |= grant->ticket != me;
      outcomes_.emplace(grant->ticket, std::move(grant->gang));
    }
    if (decided_other) cv_.notify_all();
    auto it = outcomes_.find(me);
    if (it != outcomes_.end()) {
      Result<std::vector<ExecutorId>> gang = std::move(it->second);
      outcomes_.erase(it);
      if (gang.ok()) {
        obs::Record(
            m_gang_wait_,
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
      }
      return gang;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        outcomes_.count(me) == 0) {
      WithdrawLocked(me);
      // The fairness head may have changed: wake the room to re-elect.
      cv_.notify_all();
      return Status::ResourceExhausted(StrFormat(
          "gang of %zu executors starved for %.0f s (acquire watchdog)",
          prefs.size(), kGangAcquireWatchdogSeconds));
    }
  }
}

void GangArbiter::ReleaseGang(JobId job,
                              const std::vector<ExecutorId>& gang) {
  std::lock_guard<std::mutex> lock(mu_);
  pool_.ReleaseAll(gang);
  auto it = jobs_.find(job);
  if (it != jobs_.end()) {
    it->second.holding =
        std::max(0, it->second.holding - static_cast<int>(gang.size()));
    it->second.yield_requested = false;
  }
  cv_.notify_all();
}

bool GangArbiter::ShouldYield(JobId job) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job);
  return it != jobs_.end() && it->second.yield_requested;
}

bool GangArbiter::RevokeMachine(int machine) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_.IsRevoked(machine)) return false;
  pool_.RevokeMachine(machine);
  // The head re-checks feasibility against the shrunk cluster.
  cv_.notify_all();
  return true;
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
