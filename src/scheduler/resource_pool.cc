#include "scheduler/resource_pool.h"

#include <algorithm>

#include "common/string_util.h"

namespace swift {

std::string ExecutorId::ToString() const {
  return StrFormat("m%d/e%d", machine, slot);
}

ResourcePool::ResourcePool(int machines, int executors_per_machine)
    : machines_(machines), per_machine_(executors_per_machine) {
  free_count_.assign(static_cast<std::size_t>(machines_), per_machine_);
  free_slots_.resize(static_cast<std::size_t>(machines_));
  for (int m = 0; m < machines_; ++m) {
    for (int s = 0; s < per_machine_; ++s) {
      free_slots_[static_cast<std::size_t>(m)].insert(s);
    }
  }
}

int ResourcePool::free_executors() const {
  int total = 0;
  for (int m = 0; m < machines_; ++m) {
    if (read_only_.count(m) || revoked_.count(m)) continue;
    total += free_count_[static_cast<std::size_t>(m)];
  }
  return total;
}

int ResourcePool::schedulable_executors() const {
  int total = 0;
  for (int m = 0; m < machines_; ++m) {
    if (read_only_.count(m) || revoked_.count(m)) continue;
    total += per_machine_;
  }
  return total;
}

int ResourcePool::free_on_machine(int machine) const {
  if (machine < 0 || machine >= machines_) return 0;
  if (read_only_.count(machine) || revoked_.count(machine)) return 0;
  return free_count_[static_cast<std::size_t>(machine)];
}

int ResourcePool::LeastLoadedMachine(
    const std::vector<int>& free_per_machine) const {
  int best = -1;
  int best_free = 0;
  for (int m = 0; m < machines_; ++m) {
    if (read_only_.count(m) || revoked_.count(m)) continue;
    const int f = free_per_machine[static_cast<std::size_t>(m)];
    if (f > best_free) {
      best_free = f;
      best = m;
    }
  }
  return best;
}

Result<std::vector<ExecutorId>> ResourcePool::AllocateGang(
    const std::vector<LocalityPref>& prefs) {
  // Plan against a scratch copy so failure allocates nothing.
  std::vector<int> scratch = free_count_;
  std::vector<int> chosen_machine(prefs.size(), -1);
  for (std::size_t i = 0; i < prefs.size(); ++i) {
    int machine = -1;
    for (int pref : prefs[i]) {
      if (pref >= 0 && pref < machines_ && !read_only_.count(pref) &&
          !revoked_.count(pref) && scratch[static_cast<std::size_t>(pref)] > 0) {
        machine = pref;
        break;
      }
    }
    if (machine < 0) machine = LeastLoadedMachine(scratch);
    if (machine < 0) {
      return Status::ResourceExhausted(StrFormat(
          "gang allocation of %zu executors failed at task %zu",
          prefs.size(), i));
    }
    --scratch[static_cast<std::size_t>(machine)];
    chosen_machine[i] = machine;
  }
  // Commit.
  std::vector<ExecutorId> out;
  out.reserve(prefs.size());
  for (std::size_t i = 0; i < prefs.size(); ++i) {
    const int m = chosen_machine[i];
    auto& slots = free_slots_[static_cast<std::size_t>(m)];
    const int slot = *slots.begin();
    slots.erase(slots.begin());
    --free_count_[static_cast<std::size_t>(m)];
    out.push_back(ExecutorId{m, slot});
  }
  return out;
}

void ResourcePool::Release(const ExecutorId& id) {
  if (id.machine < 0 || id.machine >= machines_) return;
  if (revoked_.count(id.machine)) return;  // machine gone with its slots
  auto& slots = free_slots_[static_cast<std::size_t>(id.machine)];
  if (slots.insert(id.slot).second) {
    ++free_count_[static_cast<std::size_t>(id.machine)];
  }
}

void ResourcePool::ReleaseAll(const std::vector<ExecutorId>& ids) {
  for (const ExecutorId& id : ids) Release(id);
}

void ResourcePool::SetReadOnly(int machine, bool read_only) {
  if (read_only) {
    read_only_.insert(machine);
  } else {
    read_only_.erase(machine);
  }
}

bool ResourcePool::IsReadOnly(int machine) const {
  return read_only_.count(machine) > 0;
}

bool ResourcePool::IsRevoked(int machine) const {
  return revoked_.count(machine) > 0;
}

std::vector<ExecutorId> ResourcePool::RevokeMachine(int machine) {
  std::vector<ExecutorId> busy;
  if (machine < 0 || machine >= machines_) return busy;
  // Idempotent: a second revocation (e.g. the runtime re-syncing pool
  // state every graphlet while a machine stays down) reports no busy
  // executors instead of re-reporting every slot.
  if (revoked_.count(machine) > 0) return busy;
  auto& slots = free_slots_[static_cast<std::size_t>(machine)];
  for (int s = 0; s < per_machine_; ++s) {
    if (slots.count(s) == 0) busy.push_back(ExecutorId{machine, s});
  }
  slots.clear();
  free_count_[static_cast<std::size_t>(machine)] = 0;
  revoked_.insert(machine);
  return busy;
}

void ResourcePool::RestoreMachine(int machine) {
  if (machine < 0 || machine >= machines_) return;
  if (revoked_.erase(machine) == 0) return;
  auto& slots = free_slots_[static_cast<std::size_t>(machine)];
  slots.clear();
  for (int s = 0; s < per_machine_; ++s) slots.insert(s);
  free_count_[static_cast<std::size_t>(machine)] = per_machine_;
}

}  // namespace swift
