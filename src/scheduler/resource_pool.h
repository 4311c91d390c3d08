#ifndef SWIFT_SCHEDULER_RESOURCE_POOL_H_
#define SWIFT_SCHEDULER_RESOURCE_POOL_H_

#include <compare>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace swift {

/// \brief One pre-launched Swift Executor slot.
struct ExecutorId {
  int machine = -1;
  int slot = -1;
  /// Incarnation of `machine` the slot was granted in. Restoring a
  /// revoked machine starts a new incarnation, so a late release of a
  /// slot granted before the failure cannot free the same slot number a
  /// later gang holds.
  int epoch = 0;

  auto operator<=>(const ExecutorId&) const = default;
  std::string ToString() const;
};

/// \brief Locality preference of one task (machine indices, best first).
using LocalityPref = std::vector<int>;

/// \brief The Resource Scheduler's executor pool (Fig. 2).
///
/// Executors are pre-launched when Swift starts and held in this pool;
/// graphlets are gang-allocated — all requested executors or none — with
/// data locality and machine load balancing (Sec. III-A-2). Machines
/// marked read-only by the health monitor receive no new tasks.
///
/// Placement keeps an index of schedulable machines ordered by free
/// executors, so a task's least-loaded machine costs O(log machines)
/// rather than a scan (the simulator allocates from pools of thousands
/// of machines).
class ResourcePool {
 public:
  /// \param executors_per_machine slots pre-launched on each machine.
  ResourcePool(int machines, int executors_per_machine);

  int machines() const { return machines_; }
  int total_executors() const { return machines_ * per_machine_; }
  /// \brief Free executors on live, non-read-only machines.
  int free_executors() const { return free_total_; }
  /// \brief Executors on live, non-read-only machines, busy or free: the
  /// largest gang AllocateGang can ever grant before the cluster changes.
  int schedulable_executors() const { return schedulable_total_; }
  int free_on_machine(int machine) const;

  /// \brief Gang allocation for `prefs.size()` tasks: every task gets an
  /// executor or the call fails with ResourceExhausted and allocates
  /// nothing. A task with a locality preference is placed on the first
  /// preferred machine with a free executor; other tasks go to the
  /// least-loaded machine ("the most free machine"; ties to the lowest
  /// index). Each machine hands out its lowest free slot.
  Result<std::vector<ExecutorId>> AllocateGang(
      const std::vector<LocalityPref>& prefs);

  /// \brief Returns one executor to the pool. Ignored when the machine is
  /// revoked or `id` comes from an earlier incarnation of it.
  void Release(const ExecutorId& id);

  void ReleaseAll(const std::vector<ExecutorId>& ids);

  /// \brief Health-monitor integration: stop scheduling onto `machine`.
  void SetReadOnly(int machine, bool read_only);
  bool IsReadOnly(int machine) const;

  /// \brief Machine failure: all its executors leave the pool (revoked);
  /// returns the executors that were running tasks there (busy ones).
  std::vector<ExecutorId> RevokeMachine(int machine);

  /// \brief Re-adds a previously revoked machine (repair) as a new
  /// incarnation with every slot free.
  void RestoreMachine(int machine);
  bool IsRevoked(int machine) const;

 private:
  struct Machine {
    std::set<int> free_slots;
    int epoch = 0;
    bool read_only = false;
    bool revoked = false;
    bool schedulable() const { return !read_only && !revoked; }
  };

  /// Every change to a machine's state or free slots happens between
  /// Unindex and Index, which keep the placement index and the cached
  /// totals in step with it.
  void Unindex(int machine);
  void Index(int machine);

  int machines_;
  int per_machine_;
  std::vector<Machine> state_;
  /// (-free, machine) for schedulable machines with a free executor:
  /// begin() is the least-loaded machine, ties to the lowest index.
  std::set<std::pair<int, int>> by_free_;
  int free_total_ = 0;
  int schedulable_total_ = 0;
};

}  // namespace swift

#endif  // SWIFT_SCHEDULER_RESOURCE_POOL_H_
