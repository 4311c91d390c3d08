#include "scheduler/resource_pool.h"

#include "common/string_util.h"

namespace swift {

std::string ExecutorId::ToString() const {
  return StrFormat("m%d/e%d", machine, slot);
}

ResourcePool::ResourcePool(int machines, int executors_per_machine)
    : machines_(machines), per_machine_(executors_per_machine) {
  state_.resize(static_cast<std::size_t>(machines_));
  for (int m = 0; m < machines_; ++m) {
    for (int s = 0; s < per_machine_; ++s) {
      state_[static_cast<std::size_t>(m)].free_slots.insert(s);
    }
    Index(m);
  }
}

void ResourcePool::Unindex(int machine) {
  const Machine& st = state_[static_cast<std::size_t>(machine)];
  if (!st.schedulable()) return;
  const int free = static_cast<int>(st.free_slots.size());
  by_free_.erase({-free, machine});
  free_total_ -= free;
  schedulable_total_ -= per_machine_;
}

void ResourcePool::Index(int machine) {
  const Machine& st = state_[static_cast<std::size_t>(machine)];
  if (!st.schedulable()) return;
  const int free = static_cast<int>(st.free_slots.size());
  if (free > 0) by_free_.insert({-free, machine});
  free_total_ += free;
  schedulable_total_ += per_machine_;
}

int ResourcePool::free_on_machine(int machine) const {
  if (machine < 0 || machine >= machines_) return 0;
  const Machine& st = state_[static_cast<std::size_t>(machine)];
  return st.schedulable() ? static_cast<int>(st.free_slots.size()) : 0;
}

Result<std::vector<ExecutorId>> ResourcePool::AllocateGang(
    const std::vector<LocalityPref>& prefs) {
  // Any task may land on any schedulable machine, so the gang fits iff
  // the free total covers it; placement below then never fails.
  if (prefs.size() > static_cast<std::size_t>(free_total_)) {
    return Status::ResourceExhausted(
        StrFormat("gang allocation of %zu executors failed: %d free",
                  prefs.size(), free_total_));
  }
  std::vector<ExecutorId> out;
  out.reserve(prefs.size());
  for (const LocalityPref& pref : prefs) {
    int machine = -1;
    for (int m : pref) {
      if (free_on_machine(m) > 0) {
        machine = m;
        break;
      }
    }
    if (machine < 0) machine = by_free_.begin()->second;
    Machine& st = state_[static_cast<std::size_t>(machine)];
    Unindex(machine);
    const int slot = *st.free_slots.begin();
    st.free_slots.erase(st.free_slots.begin());
    Index(machine);
    out.push_back(ExecutorId{machine, slot, st.epoch});
  }
  return out;
}

void ResourcePool::Release(const ExecutorId& id) {
  if (id.machine < 0 || id.machine >= machines_) return;
  Machine& st = state_[static_cast<std::size_t>(id.machine)];
  // A revoked machine took its slots with it; a restored one started
  // over with every slot free, so releases from before are stale.
  if (st.revoked || id.epoch != st.epoch) return;
  if (st.free_slots.count(id.slot) > 0) return;
  Unindex(id.machine);
  st.free_slots.insert(id.slot);
  Index(id.machine);
}

void ResourcePool::ReleaseAll(const std::vector<ExecutorId>& ids) {
  for (const ExecutorId& id : ids) Release(id);
}

void ResourcePool::SetReadOnly(int machine, bool read_only) {
  if (machine < 0 || machine >= machines_) return;
  Unindex(machine);
  state_[static_cast<std::size_t>(machine)].read_only = read_only;
  Index(machine);
}

bool ResourcePool::IsReadOnly(int machine) const {
  return machine >= 0 && machine < machines_ &&
         state_[static_cast<std::size_t>(machine)].read_only;
}

bool ResourcePool::IsRevoked(int machine) const {
  return machine >= 0 && machine < machines_ &&
         state_[static_cast<std::size_t>(machine)].revoked;
}

std::vector<ExecutorId> ResourcePool::RevokeMachine(int machine) {
  std::vector<ExecutorId> busy;
  if (machine < 0 || machine >= machines_) return busy;
  Machine& st = state_[static_cast<std::size_t>(machine)];
  // Idempotent: a second revocation reports no busy executors instead
  // of re-reporting every slot.
  if (st.revoked) return busy;
  for (int s = 0; s < per_machine_; ++s) {
    if (st.free_slots.count(s) == 0) {
      busy.push_back(ExecutorId{machine, s, st.epoch});
    }
  }
  Unindex(machine);
  st.free_slots.clear();
  st.revoked = true;
  return busy;
}

void ResourcePool::RestoreMachine(int machine) {
  if (machine < 0 || machine >= machines_) return;
  Machine& st = state_[static_cast<std::size_t>(machine)];
  if (!st.revoked) return;
  st.revoked = false;
  st.epoch += 1;
  for (int s = 0; s < per_machine_; ++s) st.free_slots.insert(s);
  Index(machine);
}

}  // namespace swift
