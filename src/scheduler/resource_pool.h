#ifndef SWIFT_SCHEDULER_RESOURCE_POOL_H_
#define SWIFT_SCHEDULER_RESOURCE_POOL_H_

#include <compare>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"

namespace swift {

/// \brief One pre-launched Swift Executor slot.
struct ExecutorId {
  int machine = -1;
  int slot = -1;

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
class ResourcePool {
 public:
  /// \param executors_per_machine slots pre-launched on each machine.
  ResourcePool(int machines, int executors_per_machine);

  int machines() const { return machines_; }
  int total_executors() const { return machines_ * per_machine_; }
  int free_executors() const;
  int running_executors() const { return total_executors() - free_executors(); }
  /// \brief Executors on live, non-read-only machines, busy or free: the
  /// largest gang AllocateGang can ever grant before the cluster changes.
  int schedulable_executors() const;
  int free_on_machine(int machine) const;

  /// \brief Gang allocation for `prefs.size()` tasks: every task gets an
  /// executor or the call fails with ResourceExhausted and allocates
  /// nothing. A task with a locality preference is placed on the first
  /// preferred machine with a free executor; ties and unconstrained
  /// tasks go to the least-loaded machine ("the most free machine").
  Result<std::vector<ExecutorId>> AllocateGang(
      const std::vector<LocalityPref>& prefs);

  /// \brief Returns one executor to the pool.
  void Release(const ExecutorId& id);

  void ReleaseAll(const std::vector<ExecutorId>& ids);

  /// \brief Health-monitor integration: stop scheduling onto `machine`.
  void SetReadOnly(int machine, bool read_only);
  bool IsReadOnly(int machine) const;

  /// \brief Machine failure: all its executors leave the pool (revoked);
  /// returns the executors that were running tasks there (busy ones).
  std::vector<ExecutorId> RevokeMachine(int machine);

  /// \brief Re-adds a previously revoked machine (repair).
  void RestoreMachine(int machine);
  bool IsRevoked(int machine) const;

 private:
  int LeastLoadedMachine(const std::vector<int>& free_per_machine) const;

  int machines_;
  int per_machine_;
  std::vector<int> free_count_;        // per machine
  std::vector<std::set<int>> free_slots_;
  std::set<int> read_only_;
  std::set<int> revoked_;
};

}  // namespace swift

#endif  // SWIFT_SCHEDULER_RESOURCE_POOL_H_
