#include "scheduler/fair_share.h"

#include <algorithm>
#include <cmath>

namespace swift {

int ClampPriority(int priority) { return std::clamp(priority, 0, 8); }

FairSharePolicy::FairSharePolicy(FairShareConfig config)
    : config_(std::move(config)) {
  if (config_.default_weight <= 0.0) config_.default_weight = 1.0;
  if (config_.priority_boost < 1.0) config_.priority_boost = 1.0;
}

double FairSharePolicy::EffectiveWeight(const std::string& tenant,
                                        int priority) const {
  auto it = config_.tenant_weights.find(tenant);
  const double base = it != config_.tenant_weights.end() && it->second > 0.0
                          ? it->second
                          : config_.default_weight;
  return base * std::pow(config_.priority_boost,
                         static_cast<double>(ClampPriority(priority)));
}

void FairSharePolicy::Activate(const std::string& tenant) {
  auto [it, inserted] = virtual_time_.emplace(tenant, global_virtual_time_);
  if (!inserted) it->second = std::max(it->second, global_virtual_time_);
}

void FairSharePolicy::Charge(const std::string& tenant, int priority,
                             double cost) {
  auto [it, inserted] = virtual_time_.emplace(tenant, global_virtual_time_);
  // Service starts at the tenant's current virtual time; that instant is
  // the new global floor (start-time fair queuing).
  global_virtual_time_ = std::max(global_virtual_time_, it->second);
  it->second += std::max(0.0, cost) / EffectiveWeight(tenant, priority);
}

double FairSharePolicy::VirtualTime(const std::string& tenant) const {
  auto it = virtual_time_.find(tenant);
  return it != virtual_time_.end() ? it->second : 0.0;
}

std::size_t FairSharePolicy::PickIndex(
    const std::vector<Entry>& entries) const {
  // Step 1: tenant with minimum virtual time (tie: smaller name).
  const std::string* best_tenant = nullptr;
  double best_vt = 0.0;
  for (const Entry& e : entries) {
    const double vt = VirtualTime(e.tenant);
    if (best_tenant == nullptr || vt < best_vt ||
        (vt == best_vt && e.tenant < *best_tenant)) {
      best_tenant = &e.tenant;
      best_vt = vt;
    }
  }
  // Steps 2-3: within that tenant, highest priority, then FIFO.
  std::size_t best = entries.size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (e.tenant != *best_tenant) continue;
    if (best == entries.size() ||
        ClampPriority(e.priority) > ClampPriority(entries[best].priority) ||
        (ClampPriority(e.priority) == ClampPriority(entries[best].priority) &&
         e.seq < entries[best].seq)) {
      best = i;
    }
  }
  return best;
}

}  // namespace swift
