#ifndef SWIFT_SCHEDULER_TASK_TRACKER_H_
#define SWIFT_SCHEDULER_TASK_TRACKER_H_

#include <map>
#include <set>
#include <vector>

#include "dag/job_dag.h"
#include "fault/failure.h"

namespace swift {

/// \brief Lifecycle of one task instance.
enum class TaskState : int {
  kPending = 0,
  kRunning = 1,
  kCompleted = 2,
  kFailed = 3,
};

/// \brief Job Monitor state: per-task states and stage roll-ups.
class TaskTracker {
 public:
  explicit TaskTracker(const JobDag* dag);

  TaskState state(const TaskRef& t) const;
  void SetState(const TaskRef& t, TaskState s);

  /// \brief All tasks of `stage` completed.
  bool StageComplete(StageId stage) const;

  /// \brief All tasks of every stage in `stages` completed.
  bool StagesComplete(const std::vector<StageId>& stages) const;

  bool AllComplete() const;

  /// \brief Completed task set (recovery context).
  std::set<TaskRef> CompletedTasks() const;

  /// \brief Back to pending (re-run).
  void Reset(const TaskRef& t);

 private:
  const JobDag* dag_;
  std::map<TaskRef, TaskState> states_;
  std::map<StageId, int> completed_per_stage_;
};

}  // namespace swift

#endif  // SWIFT_SCHEDULER_TASK_TRACKER_H_
