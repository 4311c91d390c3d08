// JobScheduler, the per-job state machine both drivers share, driven by
// hand: no threads, no clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "dag/dag_builder.h"
#include "partition/partitioners.h"
#include "scheduler/job_scheduler.h"

namespace swift {
namespace {

using OK = OperatorKind;
using Kind = JobScheduler::Step::Kind;

// a -> c -> d, each producer ending in a global sort: three one-stage
// graphlets in a chain.
JobDag ChainDag(int first_tasks = 1) {
  DagBuilder b("chain");
  StageId a = b.AddStage("a", first_tasks, {OK::kMergeSort});
  StageId c = b.AddStage("c", 1, {OK::kMergeSort});
  StageId d = b.AddStage("d", 1, {OK::kAdhocSink});
  b.AddEdge(a, c).AddEdge(c, d);
  return std::move(b.Build()).ValueOrDie();
}

// a -> b over a pipeline edge: one graphlet of two stages.
JobDag PipelineDag() {
  DagBuilder b("pipe");
  StageId a = b.AddStage("a", 1, {OK::kStreamLine});
  StageId c = b.AddStage("b", 1, {OK::kAdhocSink});
  b.AddEdge(a, c);
  return std::move(b.Build()).ValueOrDie();
}

// Two sources feed one sink across barrier edges: graphlets {a}, {b},
// {c}, with c depending on both.
JobDag FanInDag() {
  DagBuilder b("fan-in");
  StageId a = b.AddStage("a", 1, {OK::kMergeSort});
  StageId s = b.AddStage("b", 1, {OK::kMergeSort});
  StageId c = b.AddStage("c", 1, {OK::kAdhocSink});
  b.AddEdge(a, c).AddEdge(s, c);
  return std::move(b.Build()).ValueOrDie();
}

// A DAG, its graphlet plan and the core over both. Not movable: the core
// points at the other two members.
struct Job {
  explicit Job(JobDag d, int max_task_attempts = 3)
      : dag(std::move(d)),
        plan(ShuffleModeAwarePartitioner().Partition(dag).ValueOrDie()),
        sched(&dag, &plan, max_task_attempts) {}
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  JobDag dag;
  GraphletPlan plan;
  JobScheduler sched;
};

Status Lost(const char* why) { return Status::MachineUnhealthy(why); }

// Submits the next graphlet and returns its first step.
JobScheduler::Step Submit(JobScheduler* s, GraphletId expect) {
  Result<std::optional<GraphletId>> gid = s->NextGraphlet();
  EXPECT_TRUE(gid.ok()) << gid.status().ToString();
  EXPECT_EQ(gid->value_or(-1), expect);
  s->GraphletQueued(expect);
  s->GraphletGranted(expect);
  return s->NextStep().ValueOrDie();
}

// Starts and finishes every task of a wave on `machine`.
void FinishWave(JobScheduler* s, const JobScheduler::Step& step,
                int machine = 0) {
  ASSERT_EQ(step.kind, Kind::kWave);
  for (int t : step.tasks) s->TaskStarted(TaskRef{step.stage, t});
  for (int t : step.tasks) s->TaskFinished(TaskRef{step.stage, t}, machine);
}

// Ends a pass whose waves all succeeded: the pass that ran them made
// progress (kContinue), and the next one finds the graphlet done.
void ExpectDone(JobScheduler* s) {
  EXPECT_EQ(s->NextStep().ValueOrDie().kind, Kind::kContinue);
  EXPECT_EQ(s->NextStep().ValueOrDie().kind, Kind::kDone);
}

TEST(JobSchedulerTest, StageCompletion) {
  Job j(ChainDag());
  for (StageId s : {0, 1, 2}) {
    EXPECT_EQ(j.sched.state(TaskRef{s, 0}), TaskState::kPending);
  }
  EXPECT_FALSE(j.sched.StageComplete(0));
  j.sched.TaskStarted(TaskRef{0, 0});
  EXPECT_EQ(j.sched.state(TaskRef{0, 0}), TaskState::kRunning);
  j.sched.TaskFinished(TaskRef{0, 0}, 2);
  EXPECT_TRUE(j.sched.StageComplete(0));
  EXPECT_EQ(j.sched.machine(TaskRef{0, 0}), 2);
  EXPECT_FALSE(j.sched.AllComplete());
  j.sched.TaskFinished(TaskRef{1, 0}, 0);
  j.sched.TaskFinished(TaskRef{2, 0}, 0);
  EXPECT_TRUE(j.sched.AllComplete());
  EXPECT_EQ(j.sched.CompletedTasks().size(), 3u);
}

TEST(JobSchedulerTest, ResetUndoesCompletion) {
  Job j(ChainDag());
  j.sched.TaskFinished(TaskRef{0, 0}, 0);
  EXPECT_TRUE(j.sched.StageComplete(0));
  // Its retained output died with the machine: the core resets it.
  auto r = j.sched.TaskFailed(TaskRef{0, 0}, FailureKind::kMachineFailure,
                              Lost("outputs lost"), /*output_readable=*/false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->acted);
  EXPECT_EQ(r->decision.rerun, (std::vector<TaskRef>{TaskRef{0, 0}}));
  EXPECT_FALSE(j.sched.StageComplete(0));
  EXPECT_EQ(j.sched.state(TaskRef{0, 0}), TaskState::kPending);
  EXPECT_EQ(j.sched.attempts(TaskRef{0, 0}), 1);
}

TEST(JobSchedulerDeathTest, UnknownTaskDies) {
  Job j(ChainDag());
  EXPECT_DEATH(j.sched.TaskFinished(TaskRef{99, 0}, 0), "unknown stage 99");
  EXPECT_DEATH((void)j.sched.state(TaskRef{0, 1}), "unknown task s0.t1");
}

TEST(JobSchedulerTest, KNoneRestoreChargesNoAttempt) {
  Job j(ChainDag());
  j.sched.TaskFinished(TaskRef{0, 0}, 0);
  // The output is still readable, so its cross-graphlet consumer is
  // satisfied: nothing re-runs and the task stays completed.
  auto r = j.sched.TaskFailed(TaskRef{0, 0}, FailureKind::kMachineFailure,
                              Lost("slow"), /*output_readable=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->acted);
  EXPECT_EQ(r->decision.kase, RecoveryCase::kNone);
  EXPECT_EQ(j.sched.state(TaskRef{0, 0}), TaskState::kCompleted);
  EXPECT_EQ(j.sched.attempts(TaskRef{0, 0}), 0);
  EXPECT_EQ(r->restart_equivalent, 0);  // executed excludes the failed task
}

TEST(JobSchedulerTest, FailureOfPendingTaskDoesNothing) {
  Job j(ChainDag());
  auto r = j.sched.TaskFailed(TaskRef{0, 0}, FailureKind::kProcessCrash,
                              Status::ExecutorLost("late"), false);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->acted);
  EXPECT_EQ(j.sched.attempts(TaskRef{0, 0}), 0);
  // An application failure is reported even then.
  auto app = j.sched.TaskFailed(TaskRef{0, 0}, FailureKind::kApplicationError,
                                Status::Application("bug"), false);
  ASSERT_FALSE(app.ok());
  EXPECT_NE(app.status().ToString().find("application failure, recovery "
                                         "skipped"),
            std::string::npos)
      << app.status().ToString();
}

TEST(JobSchedulerTest, AttemptBudgetAbortsWithTodaysMessage) {
  Job j(ChainDag(), /*max_task_attempts=*/3);
  const TaskRef t{0, 0};
  for (int attempt = 1; attempt <= 2; ++attempt) {
    j.sched.TaskStarted(t);
    auto r = j.sched.TaskFailed(t, FailureKind::kProcessCrash,
                                Status::ExecutorLost("crash"), false);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(j.sched.attempts(t), attempt);
    EXPECT_EQ(j.sched.state(t), TaskState::kPending);
  }
  j.sched.TaskStarted(t);
  auto r = j.sched.TaskFailed(t, FailureKind::kProcessCrash,
                              Status::ExecutorLost("crash"), false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutorLost);
  EXPECT_NE(r.status().ToString().find("task s0.t0 failed 3 times"),
            std::string::npos)
      << r.status().ToString();
}

TEST(JobSchedulerTest, ReadyGraphletsInIdOrder) {
  Job j(FanInDag());
  ASSERT_EQ(j.plan.graphlets.size(), 3u);
  EXPECT_EQ(j.sched.ReadyGraphlets(), (std::vector<GraphletId>{0, 1}));
  j.sched.GraphletQueued(0);
  EXPECT_EQ(j.sched.ReadyGraphlets(), (std::vector<GraphletId>{1}));
  j.sched.GraphletGranted(0);
  j.sched.GraphletFinished(0);
  EXPECT_TRUE(j.sched.GraphletComplete(0));
  EXPECT_EQ(j.sched.ReadyGraphlets(), (std::vector<GraphletId>{1}));
  j.sched.GraphletFinished(1);
  EXPECT_EQ(j.sched.ReadyGraphlets(), (std::vector<GraphletId>{2}));
}

TEST(JobSchedulerTest, PassSeesEarlierWavesOfTheSamePass) {
  Job j(PipelineDag());
  ASSERT_EQ(j.plan.graphlets.size(), 1u);
  JobScheduler::Step step = Submit(&j.sched, 0);
  ASSERT_EQ(step.kind, Kind::kWave);
  EXPECT_EQ(step.stage, 0);
  FinishWave(&j.sched, step);
  // The same pass reaches b, whose input a just completed.
  step = j.sched.NextStep().ValueOrDie();
  ASSERT_EQ(step.kind, Kind::kWave);
  EXPECT_EQ(step.stage, 1);
  EXPECT_EQ(step.tasks, std::vector<int>{0});
  j.sched.TaskStarted(TaskRef{1, 0});
  ASSERT_TRUE(j.sched
                  .TaskFailed(TaskRef{1, 0}, FailureKind::kProcessCrash,
                              Status::ExecutorLost("crash"), false)
                  .ok());
  EXPECT_EQ(j.sched.NextStep().ValueOrDie().kind, Kind::kContinue);
  // The next pass skips a (complete) and re-runs b alone.
  step = j.sched.NextStep().ValueOrDie();
  ASSERT_EQ(step.kind, Kind::kWave);
  EXPECT_EQ(step.stage, 1);
  FinishWave(&j.sched, step);
  ExpectDone(&j.sched);
  auto end = j.sched.NextGraphlet();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(JobSchedulerTest, CrossGraphletResetSuspendsGraphlet) {
  Job j(ChainDag());
  FinishWave(&j.sched, Submit(&j.sched, 0), /*machine=*/0);
  ExpectDone(&j.sched);
  JobScheduler::Step step = Submit(&j.sched, 1);
  ASSERT_EQ(step.kind, Kind::kWave);
  j.sched.TaskStarted(TaskRef{1, 0});
  // Machine 0 dies: a's retained output is lost and c fails with it.
  ASSERT_TRUE(j.sched
                  .TaskFailed(TaskRef{0, 0}, FailureKind::kMachineFailure,
                              Lost("outputs lost"), false)
                  .ok());
  ASSERT_TRUE(j.sched
                  .TaskFailed(TaskRef{1, 0}, FailureKind::kMachineFailure,
                              Lost("machine died"), false)
                  .ok());
  EXPECT_EQ(j.sched.NextStep().ValueOrDie().kind, Kind::kContinue);
  EXPECT_EQ(j.sched.NextStep().ValueOrDie().kind, Kind::kSuspended);
  // The ready set is read again: upstream graphlet 0 runs first.
  EXPECT_EQ(j.sched.ReadyGraphlets(), std::vector<GraphletId>{0});
  FinishWave(&j.sched, Submit(&j.sched, 0), /*machine=*/1);
  ExpectDone(&j.sched);
}

TEST(JobSchedulerTest, YieldRequeuesAndWidensBound) {
  Job j(ChainDag(/*first_tasks=*/2));
  const int rounds = j.sched.round_limit() + 5;
  for (int i = 0; i < rounds; ++i) {
    JobScheduler::Step step = Submit(&j.sched, 0);
    ASSERT_EQ(step.kind, Kind::kWave);
    // One task finishes, the other is still running at the boundary.
    j.sched.TaskStarted(TaskRef{0, 0});
    j.sched.TaskStarted(TaskRef{0, 1});
    if (i == 0) j.sched.TaskFinished(TaskRef{0, 0}, 0);
    ASSERT_EQ(j.sched.NextStep().ValueOrDie().kind, Kind::kContinue);
    j.sched.Yield();
    EXPECT_EQ(j.sched.ReadyGraphlets(), std::vector<GraphletId>{0});
  }
  EXPECT_EQ(j.sched.yields(), rounds);
  // More rounds than the bound allows, and the job still completes.
  FinishWave(&j.sched, Submit(&j.sched, 0));
  ExpectDone(&j.sched);
  for (GraphletId g : {1, 2}) {
    FinishWave(&j.sched, Submit(&j.sched, g));
    ExpectDone(&j.sched);
  }
  EXPECT_TRUE(j.sched.AllComplete());
}

TEST(JobSchedulerTest, RestartClearsTheJob) {
  Job j(ChainDag());
  FinishWave(&j.sched, Submit(&j.sched, 0), /*machine=*/1);
  ExpectDone(&j.sched);
  j.sched.GraphletQueued(1);
  j.sched.GraphletGranted(1);
  j.sched.TaskStarted(TaskRef{1, 0});
  ASSERT_TRUE(j.sched
                  .TaskFailed(TaskRef{1, 0}, FailureKind::kProcessCrash,
                              Status::ExecutorLost("crash"), false)
                  .ok());
  EXPECT_EQ(j.sched.attempts(TaskRef{1, 0}), 1);

  j.sched.Restart();
  for (StageId s : {0, 1, 2}) {
    EXPECT_EQ(j.sched.state(TaskRef{s, 0}), TaskState::kPending);
    EXPECT_EQ(j.sched.attempts(TaskRef{s, 0}), 0);
    EXPECT_EQ(j.sched.machine(TaskRef{s, 0}), -1);
  }
  EXPECT_TRUE(j.sched.CompletedTasks().empty());
  EXPECT_EQ(j.sched.ReadyGraphlets(), std::vector<GraphletId>{0});
  EXPECT_EQ(j.sched.yields(), 0);
}

// Drives a job to its end the way LocalRuntime does, with no threads:
// each wave's outcomes follow `script` ('C': the lowest running task
// finishes; 'L': machine `lost` dies, failing its running tasks), and
// once the script is spent every task finishes. Each wave is then booked
// in the runtime's order: completions, outputs lost on the dead machine,
// then the failures in task order. Tasks run on machine (index % 2),
// moved off the dead machine once it is gone.
class ScriptedDriver {
 public:
  ScriptedDriver(JobScheduler* sched, std::vector<char> script, int lost)
      : sched_(sched), script_(std::move(script)), lost_(lost) {}

  Status Run() {
    for (;;) {
      SWIFT_ASSIGN_OR_RETURN(std::optional<GraphletId> gid,
                             sched_->NextGraphlet());
      if (!gid.has_value()) return Status::OK();
      sched_->GraphletQueued(*gid);
      sched_->GraphletGranted(*gid);
      for (bool end = false; !end;) {
        SWIFT_ASSIGN_OR_RETURN(JobScheduler::Step step, sched_->NextStep());
        if (step.kind == Kind::kWave) {
          SWIFT_RETURN_NOT_OK(RunWave(step.stage, step.tasks));
        } else {
          end = step.kind != Kind::kContinue;
        }
      }
    }
  }

  int recoveries() const { return recoveries_; }
  bool loss_delivered() const { return down_; }

 private:
  Status Fail(const TaskRef& t, const char* why) {
    SWIFT_ASSIGN_OR_RETURN(
        JobScheduler::Recovery r,
        sched_->TaskFailed(t, FailureKind::kMachineFailure, Lost(why),
                           /*output_readable=*/false));
    if (r.acted) ++recoveries_;
    return Status::OK();
  }

  Status RunWave(StageId stage, const std::vector<int>& tasks) {
    std::vector<std::pair<TaskRef, int>> running;
    for (int t : tasks) {
      const TaskRef ref{stage, t};
      sched_->TaskStarted(ref);
      int m = t % 2;
      if (down_ && m == lost_) m = 1 - m;
      running.push_back({ref, m});
    }
    std::vector<std::pair<TaskRef, int>> finished;
    std::vector<TaskRef> failed;
    bool lost_now = false;
    while (!running.empty()) {
      const char ev = next_ < script_.size() ? script_[next_++] : 'C';
      if (ev == 'C') {
        finished.push_back(running.front());
        running.erase(running.begin());
        continue;
      }
      down_ = lost_now = true;
      for (auto it = running.begin(); it != running.end();) {
        if (it->second != lost_) {
          ++it;
          continue;
        }
        failed.push_back(it->first);
        it = running.erase(it);
      }
    }
    for (const auto& [t, m] : finished) sched_->TaskFinished(t, m);
    if (lost_now) {
      for (const TaskRef& t : sched_->TasksFinishedOn(lost_)) {
        if (sched_->state(t) != TaskState::kCompleted) continue;
        SWIFT_RETURN_NOT_OK(Fail(t, "outputs lost"));
      }
    }
    std::sort(failed.begin(), failed.end());
    for (const TaskRef& t : failed) SWIFT_RETURN_NOT_OK(Fail(t, "died"));
    return Status::OK();
  }

  JobScheduler* sched_;
  std::vector<char> script_;
  std::size_t next_ = 0;
  int lost_;
  bool down_ = false;
  int recoveries_ = 0;
};

TEST(JobSchedulerTest, EveryOrderOfTwoCompletionsAndOneLossEnds) {
  // The aborts a job may end in; anything else is a scheduler bug.
  const std::vector<std::string> stated = {
      "failed", "recovery did not converge", "no submittable graphlet",
      "stalled"};
  std::vector<char> events = {'C', 'C', 'L'};
  std::sort(events.begin(), events.end());
  int orders = 0;
  do {
    for (int lost : {0, 1}) {
      SCOPED_TRACE(std::string(events.begin(), events.end()) +
                   " lose machine " + std::to_string(lost));
      Job j(ChainDag(/*first_tasks=*/2));
      ASSERT_EQ(j.plan.graphlets.size(), 3u);
      ScriptedDriver driver(&j.sched, events, lost);
      const Status st = driver.Run();
      ++orders;
      EXPECT_TRUE(driver.loss_delivered());
      if (st.ok()) {
        EXPECT_TRUE(j.sched.AllComplete());
        // The dead machine held a task or its output: something recovered.
        EXPECT_GT(driver.recoveries(), 0);
        continue;
      }
      const std::string msg = st.ToString();
      EXPECT_TRUE(std::any_of(stated.begin(), stated.end(),
                              [&](const std::string& s) {
                                return msg.find(s) != std::string::npos;
                              }))
          << msg;
    }
  } while (std::next_permutation(events.begin(), events.end()));
  EXPECT_EQ(orders, 6);  // 3 orders of {C, C, L} x 2 machines
}

}  // namespace
}  // namespace swift
