#include "scheduler/task_tracker.h"

namespace swift {

TaskTracker::TaskTracker(const JobDag* dag) : dag_(dag) {
  for (const StageDef& s : dag_->stages()) {
    completed_per_stage_[s.id] = 0;
    for (int t = 0; t < s.task_count; ++t) {
      states_[TaskRef{s.id, t}] = TaskState::kPending;
    }
  }
}

TaskState TaskTracker::state(const TaskRef& t) const {
  auto it = states_.find(t);
  return it == states_.end() ? TaskState::kPending : it->second;
}

void TaskTracker::SetState(const TaskRef& t, TaskState s) {
  auto it = states_.find(t);
  if (it == states_.end()) return;
  if (it->second == TaskState::kCompleted && s != TaskState::kCompleted) {
    --completed_per_stage_[t.stage];
  }
  if (it->second != TaskState::kCompleted && s == TaskState::kCompleted) {
    ++completed_per_stage_[t.stage];
  }
  it->second = s;
}

bool TaskTracker::StageComplete(StageId stage) const {
  auto it = completed_per_stage_.find(stage);
  if (it == completed_per_stage_.end()) return false;
  return it->second == dag_->stage(stage).task_count;
}

bool TaskTracker::StagesComplete(const std::vector<StageId>& stages) const {
  for (StageId s : stages) {
    if (!StageComplete(s)) return false;
  }
  return true;
}

bool TaskTracker::AllComplete() const {
  for (const StageDef& s : dag_->stages()) {
    if (!StageComplete(s.id)) return false;
  }
  return true;
}

std::set<TaskRef> TaskTracker::CompletedTasks() const {
  std::set<TaskRef> out;
  for (const auto& [t, s] : states_) {
    if (s == TaskState::kCompleted) out.insert(t);
  }
  return out;
}

void TaskTracker::Reset(const TaskRef& t) { SetState(t, TaskState::kPending); }

}  // namespace swift
