#include "scheduler/job_scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace swift {

JobScheduler::JobScheduler(const JobDag* dag, const GraphletPlan* graphlets,
                           int max_task_attempts)
    : dag_(dag),
      graphlets_(graphlets),
      recovery_(dag, graphlets),
      max_task_attempts_(max_task_attempts),
      // Cross-graphlet recovery can reset already-complete graphlets, so
      // submission is bounded by attempts, not graphlet count.
      round_limit_((static_cast<int>(graphlets->graphlets.size()) + 1) *
                       (max_task_attempts + 2) +
                   8) {
  offset_.push_back(0);
  for (StageId s = 0; s < static_cast<StageId>(dag_->stages().size()); ++s) {
    SWIFT_CHECK(dag_->HasStage(s)) << "stage ids must be 0..n-1";
    offset_.push_back(offset_.back() + dag_->stage(s).task_count);
  }
  Restart();
}

void JobScheduler::Restart() {
  state_.assign(offset_.back(), TaskState::kPending);
  completed_.assign(offset_.size() - 1, 0);
  stages_complete_ = 0;
  attempts_.clear();
  machine_.clear();
  consumers_.clear();
  phase_.assign(graphlets_->graphlets.size(), Phase::kIdle);
  round_.clear();
  round_next_ = 0;
  rounds_ = yields_ = 0;
  running_ = -1;
}

int JobScheduler::Tasks(StageId stage) const {
  SWIFT_CHECK(stage >= 0 && stage < stage_count())
      << "unknown stage " << stage;
  return offset_[stage + 1] - offset_[stage];
}

int JobScheduler::Index(const TaskRef& t) const {
  SWIFT_CHECK(t.task >= 0 && t.task < Tasks(t.stage))
      << "unknown task " << t.ToString();
  return offset_[t.stage] + t.task;
}

template <typename F>
void JobScheduler::ForEachTask(F f) const {
  for (StageId s = 0; s < stage_count(); ++s) {
    for (int t = 0; t < Tasks(s); ++t) f(TaskRef{s, t}, offset_[s] + t);
  }
}

void JobScheduler::SetState(const TaskRef& t, TaskState s) {
  TaskState& cur = state_[Index(t)];
  if ((cur == TaskState::kCompleted) != (s == TaskState::kCompleted)) {
    if (StageComplete(t.stage)) --stages_complete_;
    completed_[t.stage] += s == TaskState::kCompleted ? 1 : -1;
    if (StageComplete(t.stage)) ++stages_complete_;
  }
  cur = s;
}

int JobScheduler::attempts(const TaskRef& t) const {
  const int i = Index(t);
  return attempts_.empty() ? 0 : attempts_[i];
}

int JobScheduler::machine(const TaskRef& t) const {
  const int i = Index(t);
  return machine_.empty() ? -1 : machine_[i];
}

bool JobScheduler::StageComplete(StageId stage) const {
  return completed_[stage] == Tasks(stage);
}

bool JobScheduler::GraphletComplete(GraphletId gid) const {
  const auto& stages = graphlets_->graphlets[gid].stages;
  return std::all_of(stages.begin(), stages.end(),
                     [this](StageId s) { return StageComplete(s); });
}

std::set<TaskRef> JobScheduler::CompletedTasks() const {
  std::set<TaskRef> out;
  ForEachTask([&](const TaskRef& t, int i) {
    if (state_[i] == TaskState::kCompleted) out.insert(out.end(), t);
  });
  return out;
}

std::vector<TaskRef> JobScheduler::TasksFinishedOn(int machine) const {
  std::vector<TaskRef> out;
  if (machine_.empty()) return out;
  ForEachTask([&](const TaskRef& t, int i) {
    if (machine_[i] == machine) out.push_back(t);
  });
  return out;
}

void JobScheduler::TaskFinished(const TaskRef& t, int machine) {
  SetState(t, TaskState::kCompleted);
  if (machine_.empty()) machine_.assign(state_.size(), -1);
  machine_[Index(t)] = machine;
}

Result<JobScheduler::Recovery> JobScheduler::TaskFailed(
    const TaskRef& t, FailureKind kind, const Status& error,
    bool output_readable) {
  const int i = Index(t);
  Recovery r;
  // A machine-loss cascade may already have replanned this task.
  if (kind != FailureKind::kApplicationError &&
      state_[i] == TaskState::kPending) {
    return r;
  }
  const bool was_completed = state_[i] == TaskState::kCompleted;
  SetState(t, TaskState::kFailed);
  RecoveryContext rctx;
  rctx.executed = CompletedTasks();
  if (!consumers_.empty()) {
    rctx.received_output = {consumers_[i].begin(), consumers_[i].end()};
  }
  rctx.failed_output_available = was_completed && output_readable;

  r.decision = recovery_.Plan(t, kind, rctx);
  if (r.decision.report_only) {
    // Sec. IV-C: application failures are reported, never retried.
    return error.WithContext("application failure, recovery skipped");
  }
  // An attempt is charged only when the task will run again: a kNone
  // decision on a completed task restores it and re-runs nothing (the
  // paper's useless-recovery avoidance), so it must not eat the budget.
  const bool restores_task =
      r.decision.kase == RecoveryCase::kNone && was_completed;
  if (!restores_task) {
    if (attempts_.empty()) attempts_.assign(state_.size(), 0);
    if (++attempts_[i] >= max_task_attempts_) {
      return error.WithContext(StrFormat(
          "task %s failed %d times", t.ToString().c_str(), attempts_[i]));
    }
  }
  r.acted = true;
  r.restart_equivalent =
      static_cast<int64_t>(recovery_.JobRestartRerunSet(rctx).size());
  // kNone: every consumer already holds the data, so a completed task
  // stays completed (the paper's recovery-avoidance for consumed outputs).
  if (restores_task) SetState(t, TaskState::kCompleted);
  for (const TaskRef& rerun : r.decision.rerun) Reset(rerun);
  return r;
}

void JobScheduler::Reset(const TaskRef& t) {
  SetState(t, TaskState::kPending);
  if (consumers_.empty()) return;
  // Forget who read t's output, and what t read: the rerun reads again.
  consumers_[Index(t)].clear();
  for (StageId in : dag_->inputs(t.stage)) {
    for (int p = offset_[in]; p < offset_[in + 1]; ++p) {
      std::erase(consumers_[p], t);
    }
  }
}

void JobScheduler::OutputConsumed(const TaskRef& producer,
                                  const TaskRef& consumer) {
  const int p = Index(producer);
  (void)Index(consumer);
  if (consumers_.empty()) consumers_.resize(state_.size());
  std::vector<TaskRef>& readers = consumers_[p];
  if (std::find(readers.begin(), readers.end(), consumer) == readers.end()) {
    readers.push_back(consumer);
  }
}

void JobScheduler::GraphletGranted(GraphletId gid) {
  phase_[gid] = Phase::kRunning;
  running_ = gid;
  cursor_ = 0;
  all_done_ = true;
  progressed_ = blocked_external_ = false;
}

void JobScheduler::GraphletFinished(GraphletId gid) {
  phase_[gid] = Phase::kIdle;
  for (StageId s : graphlets_->graphlets[gid].stages) {
    if (StageComplete(s)) continue;
    std::fill(state_.begin() + offset_[s], state_.begin() + offset_[s + 1],
              TaskState::kCompleted);
    completed_[s] = Tasks(s);
    ++stages_complete_;
  }
}

void JobScheduler::Yield() {
  SWIFT_CHECK(running_ >= 0) << "yield without a running graphlet";
  yields_ += 1;
  phase_[running_] = Phase::kIdle;
  running_ = -1;
}

std::vector<GraphletId> JobScheduler::ReadyGraphlets() const {
  // A graphlet is submittable once every graphlet it depends on has all
  // tasks completed ("all its input data are ready", Sec. III-A-2).
  std::vector<GraphletId> ready;
  for (const Graphlet& g : graphlets_->graphlets) {
    if (phase_[g.id] != Phase::kIdle || GraphletComplete(g.id)) continue;
    const auto& deps = graphlets_->deps[g.id];
    if (std::all_of(deps.begin(), deps.end(),
                    [this](GraphletId d) { return GraphletComplete(d); })) {
      ready.push_back(g.id);
    }
  }
  return ready;
}

Result<std::optional<GraphletId>> JobScheduler::NextGraphlet() {
  // Submit in dependency order, one at a time (the paper's conservative
  // submission order, Sec. III-A-2). A graphlet left incomplete was
  // suspended or yielded: re-read the ready set so upstream work re-runs
  // first.
  if (round_next_ < round_.size() &&
      GraphletComplete(round_[round_next_ - 1])) {
    return std::optional<GraphletId>(round_[round_next_++]);
  }
  if (AllComplete()) return std::optional<GraphletId>();
  // Yield rounds extend the bound: a graphlet re-queued by cooperative
  // preemption made no recovery "attempt".
  if (++rounds_ > round_limit_ + yields_) {
    return Status::Internal(
        "recovery did not converge: graphlet resubmission limit reached");
  }
  round_ = ReadyGraphlets();
  if (round_.empty()) {
    return Status::Internal("no submittable graphlet but job incomplete");
  }
  round_next_ = 1;
  return std::optional<GraphletId>(round_[0]);
}

Result<JobScheduler::Step> JobScheduler::NextStep() {
  SWIFT_CHECK(running_ >= 0) << "no running graphlet";
  const Graphlet& g = graphlets_->graphlets[running_];
  const std::vector<StageId>& order = dag_->topological_order();
  Step step;
  while (cursor_ < order.size()) {
    const StageId sid = order[cursor_++];
    if (!g.Contains(sid)) continue;
    for (int t = 0; t < Tasks(sid); ++t) {
      if (state(TaskRef{sid, t}) != TaskState::kCompleted) {
        step.tasks.push_back(t);
      }
    }
    if (step.tasks.empty()) continue;
    all_done_ = false;
    const auto& inputs = dag_->inputs(sid);
    if (std::any_of(inputs.begin(), inputs.end(),
                    [this](StageId in) { return !StageComplete(in); })) {
      // Waiting on a sibling stage of this graphlet, or on an upstream
      // graphlet that recovery reset: the latter suspends this graphlet
      // so the upstream work re-runs first.
      for (StageId in : inputs) {
        if (!g.Contains(in) && !StageComplete(in)) blocked_external_ = true;
      }
      step.tasks.clear();
      continue;
    }
    progressed_ = true;
    step.kind = Step::Kind::kWave;
    step.stage = sid;
    return step;
  }
  if (!all_done_ && !progressed_ && !blocked_external_) {
    return Status::Internal(
        StrFormat("graphlet %d stalled: no runnable stage", g.id));
  }
  step.kind = all_done_     ? Step::Kind::kDone
              : progressed_ ? Step::Kind::kContinue
                            : Step::Kind::kSuspended;
  if (step.kind == Step::Kind::kContinue) {
    GraphletGranted(running_);  // the next pass
  } else {
    phase_[running_] = Phase::kIdle;
    running_ = -1;
  }
  return step;
}

}  // namespace swift
