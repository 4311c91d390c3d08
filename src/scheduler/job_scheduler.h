#ifndef SWIFT_SCHEDULER_JOB_SCHEDULER_H_
#define SWIFT_SCHEDULER_JOB_SCHEDULER_H_

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/result.h"
#include "fault/recovery.h"

namespace swift {

/// \brief Lifecycle of one task instance.
enum class TaskState : uint8_t { kPending, kRunning, kCompleted, kFailed };

/// \brief The Swift Admin's job-level state machine (Fig. 2: Job
/// Scheduler, DAG Scheduler and Failure Handler behind one event
/// processor), one per job. Single-threaded, with no clock and no locks:
/// a driver reports events and carries out what the core decides
/// (DESIGN.md Sec. 5.1). `LocalRuntime` drives it per task, `ClusterSim`
/// per graphlet. A driver's workers may read the const accessors while
/// the driver waits and reports nothing.
///
/// Task state is one byte per task, stage-major (stage ids are 0..n-1, as
/// DagBuilder and the planner assign them). Attempts, machines and
/// consumers are allocated on first use, so the sim pays one byte a task.
/// Every call SWIFT_CHECKs that a TaskRef names a task of the DAG.
class JobScheduler {
 public:
  /// \brief The running graphlet's next wave, or how its pass ended.
  struct Step {
    enum class Kind {
      kWave,       ///< run `tasks` of `stage` as one wave
      kDone,       ///< every task of the graphlet completed
      kContinue,   ///< the pass made progress: poll for a yield, go on
      kSuspended,  ///< an input from another graphlet was reset
    };
    Kind kind = Kind::kDone;
    StageId stage = -1;
    std::vector<int> tasks;
  };

  /// \brief The core's answer to a failure. Its task-state effects (the
  /// rerun reset, or a kNone task restored) are already applied; the
  /// driver invalidates outputs, re-sends and checks the rerun's inputs.
  struct Recovery {
    bool acted = false;  ///< false: the task was already pending
    RecoveryDecision decision;
    int64_t restart_equivalent = 0;  ///< what a job restart would re-run
  };

  JobScheduler(const JobDag* dag, const GraphletPlan* graphlets,
               int max_task_attempts);

  TaskState state(const TaskRef& t) const { return state_[Index(t)]; }
  int attempts(const TaskRef& t) const;
  /// Machine `t` last finished on; -1 if none was reported.
  int machine(const TaskRef& t) const;
  bool StageComplete(StageId stage) const;
  bool GraphletComplete(GraphletId gid) const;
  bool AllComplete() const { return stages_complete_ == stage_count(); }
  std::set<TaskRef> CompletedTasks() const;
  /// Tasks whose last finish was on `machine`, in any state now, in
  /// TaskRef order: the candidates for "outputs lost".
  std::vector<TaskRef> TasksFinishedOn(int machine) const;
  int yields() const { return yields_; }
  /// Submission rounds allowed before yields widen the bound.
  int round_limit() const { return round_limit_; }
  const RecoveryPlanner& recovery() const { return recovery_; }

  void TaskStarted(const TaskRef& t) { SetState(t, TaskState::kRunning); }
  void TaskFinished(const TaskRef& t, int machine);
  /// `t` failed with `error`. Outputs lost are a kMachineFailure of a
  /// completed task. `output_readable`: its retained output survives.
  /// Errors: the abort Status (an application failure, or a task out of
  /// attempts).
  Result<Recovery> TaskFailed(const TaskRef& t, FailureKind kind,
                              const Status& error, bool output_readable);
  void OutputConsumed(const TaskRef& producer, const TaskRef& consumer);

  void GraphletQueued(GraphletId gid) { phase_[gid] = Phase::kQueued; }
  /// The gang was granted: the graphlet runs, from the start of a pass.
  void GraphletGranted(GraphletId gid);
  /// Every task of the graphlet finished (a driver at unit granularity).
  void GraphletFinished(GraphletId gid);
  /// The running graphlet gave its gang back: it is requeued and the
  /// convergence bound widens by one round.
  void Yield();
  /// Whole-job restart: the core as constructed.
  void Restart();

  /// Graphlets neither complete, queued nor running whose dependencies
  /// are complete, in id order.
  std::vector<GraphletId> ReadyGraphlets() const;
  /// The next graphlet to run, one at a time: each round reads the ready
  /// set once and walks it in id order until a graphlet is left
  /// incomplete. nullopt once the job is complete. Errors: the
  /// convergence bound, or nothing submittable.
  Result<std::optional<GraphletId>> NextGraphlet();
  /// A pass visits the running graphlet's stages in topological order;
  /// each stage with pending tasks and complete inputs is one wave, and
  /// a later stage sees the states earlier waves left. Error: a stall.
  Result<Step> NextStep();

 private:
  enum class Phase : uint8_t { kIdle, kQueued, kRunning };

  int stage_count() const { return static_cast<int>(completed_.size()); }
  int Tasks(StageId stage) const;
  int Index(const TaskRef& t) const;
  void SetState(const TaskRef& t, TaskState s);
  void Reset(const TaskRef& t);
  /// Calls f(ref, index) for every task, in TaskRef order.
  template <typename F>
  void ForEachTask(F f) const;

  const JobDag* dag_;
  const GraphletPlan* graphlets_;
  RecoveryPlanner recovery_;
  int max_task_attempts_;
  int round_limit_;

  std::vector<int> offset_;     ///< stage -> first task index; back() = total
  std::vector<int> completed_;  ///< stage -> completed tasks
  int stages_complete_ = 0;
  std::vector<TaskState> state_;
  std::vector<int> attempts_;
  std::vector<int> machine_;
  std::vector<std::vector<TaskRef>> consumers_;  ///< by producer index
  std::vector<Phase> phase_;                     ///< by graphlet

  std::vector<GraphletId> round_;
  std::size_t round_next_ = 0;
  int rounds_ = 0;
  int yields_ = 0;
  /// The running graphlet's pass: its cursor into the topological order.
  GraphletId running_ = -1;
  std::size_t cursor_ = 0;
  bool all_done_ = true, progressed_ = false, blocked_external_ = false;
};

}  // namespace swift

#endif  // SWIFT_SCHEDULER_JOB_SCHEDULER_H_
