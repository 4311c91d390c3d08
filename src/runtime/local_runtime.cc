#include "runtime/local_runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/compress.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "common/wait_group.h"
#include "exec/morsel.h"
#include "exec/serde.h"
#include "obs/pool_metrics.h"
#include "scheduler/graphlet_tracker.h"
#include "scheduler/task_tracker.h"

namespace swift {

namespace {

Status StatusForFailure(FailureKind kind, const TaskRef& task) {
  const std::string what =
      StrFormat("injected %s on %s",
                std::string(FailureKindToString(kind)).c_str(),
                task.ToString().c_str());
  switch (kind) {
    case FailureKind::kProcessCrash:
      return Status::ExecutorLost(what);
    case FailureKind::kMachineFailure:
      return Status::MachineUnhealthy(what);
    case FailureKind::kNetworkTimeout:
      return Status::Timeout(what);
    case FailureKind::kApplicationError:
      return Status::Application(what);
  }
  return Status::Internal(what);
}

FailureKind FailureKindOf(const Status& st) {
  switch (st.code()) {
    case StatusCode::kExecutorLost:
      return FailureKind::kProcessCrash;
    case StatusCode::kMachineUnhealthy:
      return FailureKind::kMachineFailure;
    case StatusCode::kTimeout:
      return FailureKind::kNetworkTimeout;
    case StatusCode::kBackpressure:
      // Residual backpressure that escaped the write-side flow control
      // (it normally never does — WritePartition blocks, then forces).
      // Transient by construction: rerun the task, don't abort the job.
      return FailureKind::kNetworkTimeout;
    default:
      return FailureKind::kApplicationError;
  }
}

std::vector<SortKey> AscendingKeys(const std::vector<ExprPtr>& exprs) {
  std::vector<SortKey> keys;
  keys.reserve(exprs.size());
  for (const ExprPtr& e : exprs) keys.push_back(SortKey{e, true});
  return keys;
}

}  // namespace

struct LocalRuntime::JobContext {
  JobContext(JobId job_id, const DistributedPlan* p, GraphletPlan g)
      : job(job_id),
        plan(p),
        graphlets(std::move(g)),
        recovery(&p->dag, &graphlets),
        tracker(&p->dag),
        gtracker(&graphlets) {}

  JobId job;
  const DistributedPlan* plan;
  GraphletPlan graphlets;
  RecoveryPlanner recovery;
  TaskTracker tracker;
  GraphletTracker gtracker;
  /// Wave-boundary yields taken so far (driver thread only); extends the
  /// scheduling-round bound so cooperative preemption cannot trip the
  /// recovery-convergence guard.
  int yields = 0;
  std::map<TaskRef, ExecutorId> placement;
  std::map<TaskRef, int> writer_machine;
  std::map<TaskRef, int> attempts;
  /// producer task -> tasks that successfully consumed its output
  /// (feeds RecoveryContext::received_output).
  std::map<TaskRef, std::set<TaskRef>> received_by;
  Batch final_result;
  bool has_result = false;
  JobRunStats stats;
  /// Wall time spent inside RunTask, for the executor idle ratio.
  std::atomic<int64_t> busy_ns{0};
  std::mutex mu;  // worker-thread shared state
};

LocalRuntime::LocalRuntime(LocalRuntimeConfig config)
    : config_(std::move(config)),
      heartbeat_(config_.machines),
      health_(config_.health_failure_threshold, config_.health_window_seconds,
              config_.health_probation_seconds) {
  ShuffleService::Config sc;
  sc.machines = config_.machines;
  sc.cache_memory_per_worker = config_.cache_memory_per_worker;
  sc.spill_root = config_.spill_root;
  sc.thresholds = config_.shuffle_thresholds;
  sc.force_kind = config_.force_shuffle_kind;
  sc.retain_for_recovery = true;
  sc.max_read_attempts = config_.shuffle_read_attempts;
  sc.cache_soft_watermark = config_.cache_soft_watermark;
  sc.cache_hard_watermark = config_.cache_hard_watermark;
  sc.cache_per_job_quota = config_.cache_per_job_quota;
  sc.spill_disk_budget_bytes = config_.spill_disk_budget_bytes;
  sc.put_retry_budget = config_.shuffle_put_retry_budget;
  sc.put_wait_ms = config_.shuffle_put_wait_ms;
  sc.spill_io_retries = config_.spill_io_retries;
  sc.compression = config_.shuffle_compression;
  sc.compress_min_bytes = config_.shuffle_compress_min_bytes;
  sc.spill_compression = config_.shuffle_compression;
  sc.spill_compress_min_bytes = config_.shuffle_compress_min_bytes;
  sc.replica_fanout = config_.shuffle_replica_fanout;
  sc.load_aware_placement = config_.shuffle_load_aware_placement;
  sc.metrics = config_.metrics;
  shuffle_ = std::make_unique<ShuffleService>(sc);
  tracer_ = config_.tracer;
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry* reg = config_.metrics;
    metrics_.tasks_started = reg->counter("runtime.tasks.started");
    metrics_.tasks_completed = reg->counter("runtime.tasks.completed");
    metrics_.tasks_failed = reg->counter("runtime.tasks.failed");
    metrics_.tasks_rerun = reg->counter("runtime.tasks.rerun");
    metrics_.recoveries = reg->counter("runtime.recoveries");
    for (int c = 0; c <= static_cast<int>(RecoveryCase::kUseless); ++c) {
      metrics_.recovery_by_case[c] = reg->counter(
          "runtime.recovery." +
          std::string(RecoveryCaseToString(static_cast<RecoveryCase>(c))));
    }
    metrics_.resend_notifications = reg->counter("runtime.resend_notifications");
    metrics_.restart_equivalent_tasks =
        reg->counter("runtime.restart_equivalent_tasks");
    metrics_.machine_failures = reg->counter("runtime.machine_failures");
    metrics_.corrupt_read_retries = reg->counter("runtime.corrupt_read_retries");
    metrics_.decompress_frames = reg->counter("shuffle.decompress.frames");
    metrics_.decompress_bytes = reg->counter("shuffle.decompress.bytes");
    metrics_.heartbeat_misses = reg->counter("fault.heartbeat.misses");
    metrics_.detection_delay =
        reg->histogram("fault.detection_delay_s", 0.0, 60.0, 60);
    metrics_.queue_wait = reg->histogram("scheduler.queue_wait_s", 0.0, 1.0, 50);
    metrics_.queue_wait_last = reg->gauge("scheduler.queue_wait_last_s");
    metrics_.executor_idle_ratio = reg->gauge("scheduler.executor_idle_ratio");
    metrics_.graphlet_idle_ratio = reg->series("scheduler.graphlet_idle_ratio");
    metrics_.gang_yields = reg->counter("scheduler.gang_yields");
  }
  if (config_.fault_schedule.has_value()) {
    injector_ = std::make_unique<FaultInjector>(*config_.fault_schedule);
    shuffle_->set_fault_injector(injector_.get());
  }
  if (config_.gang_scheduler != nullptr) {
    gangs_ = config_.gang_scheduler;
  } else {
    owned_gangs_ = std::make_unique<ExclusiveGangScheduler>(
        config_.machines, config_.executors_per_machine);
    gangs_ = owned_gangs_.get();
  }
  pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(config_.worker_threads));
  obs::InstallThreadPoolMetrics(pool_.get(), config_.metrics);
  for (int m = 0; m < config_.machines; ++m) {
    heartbeat_.ReportHeartbeat(m, clock_);
  }
}

void LocalRuntime::FailMachine(int machine) {
  if (machine < 0 || machine >= config_.machines) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!down_.insert(machine).second) return;
    down_since_[machine] = clock_;  // detection delay measured from here
  }
  // The Cache Worker's memory and spill directory die with the machine.
  shuffle_->FailMachine(machine);
  SWIFT_LOG(Warn) << "machine " << machine
                  << " failed: heartbeats silent, cache worker lost";
}

void LocalRuntime::RestoreMachine(int machine) {
  if (machine < 0 || machine >= config_.machines) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    down_.erase(machine);
    detected_.erase(machine);
    down_since_.erase(machine);
    health_.Clear(machine);
    heartbeat_.ReportHeartbeat(machine, clock_);
  }
  shuffle_->RestoreMachine(machine);
  gangs_->RestoreMachine(machine);
}

std::vector<int> LocalRuntime::DownMachines() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<int>(down_.begin(), down_.end());
}

Result<Batch> LocalRuntime::ExecuteSql(const std::string& sql,
                                       const PlannerConfig& planner_config) {
  SWIFT_ASSIGN_OR_RETURN(JobRunReport report, RunSql(sql, planner_config));
  return report.result;
}

Result<JobRunReport> LocalRuntime::RunSql(const std::string& sql,
                                          const PlannerConfig& planner_config) {
  SWIFT_ASSIGN_OR_RETURN(DistributedPlan plan,
                         PlanSql(sql, catalog_, planner_config));
  return RunPlan(plan);
}

void LocalRuntime::InjectFailureOnce(const TaskRef& task, FailureKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  injected_[task] = PendingInjection{kind, /*claimed_by=*/0};
}

Result<JobRunReport> LocalRuntime::RunPlan(const DistributedPlan& plan) {
  return RunPlan(plan, JobRunOptions{});
}

Result<JobRunReport> LocalRuntime::RunPlan(const DistributedPlan& plan,
                                           const JobRunOptions& opts) {
  ShuffleModeAwarePartitioner partitioner;
  SWIFT_ASSIGN_OR_RETURN(GraphletPlan graphlets,
                         partitioner.Partition(plan.dag));
  JobId job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job = next_job_id_++;
    active_jobs_ += 1;
    // Claim pending one-shot injections: they fire only within this job
    // and are swept when it ends, so a concurrent job can neither
    // consume nor clear them.
    for (auto& [task, inj] : injected_) {
      if (inj.claimed_by == 0) inj.claimed_by = job;
    }
  }
  JobContext ctx(job, &plan, std::move(graphlets));
  gangs_->BeginJob(job, opts);
  obs::Span job_meta;
  if (tracer_ != nullptr) {
    job_meta.name = opts.label.empty()
                        ? StrFormat("job%lld", static_cast<long long>(job))
                        : opts.label;
    job_meta.category = "job";
    job_meta.job = job;
  }
  obs::ScopedSpan job_span(tracer_, std::move(job_meta));
  ctx.stats.job_id = job;
  ctx.stats.graphlets = static_cast<int>(ctx.graphlets.graphlets.size());
  for (const EdgeDef& e : plan.dag.edges()) {
    ctx.stats.edges_by_kind[shuffle_->KindFor(
        plan.dag.ShuffleEdgeSize(e.src, e.dst))] += 1;
  }

  // Cross-graphlet recovery can reset already-complete graphlets, so
  // the scheduling loop is bounded by attempts, not graphlet count.
  const int max_rounds =
      (static_cast<int>(ctx.graphlets.graphlets.size()) + 1) *
          (config_.max_task_attempts + 2) +
      8;
  int rounds = 0;
  Status failure = Status::OK();
  while (!ctx.gtracker.AllComplete() && failure.ok()) {
    // Yield rounds extend the bound: a graphlet re-queued by cooperative
    // preemption made no recovery "attempt".
    if (++rounds > max_rounds + ctx.yields) {
      failure = Status::Internal("recovery did not converge: graphlet "
                                 "resubmission limit reached");
      break;
    }
    std::vector<GraphletId> ready = ctx.gtracker.Submittable();
    if (ready.empty()) {
      failure = Status::Internal("no submittable graphlet but job incomplete");
      break;
    }
    // Submit in dependency order, one at a time (the paper's
    // conservative submission order, Sec. III-A-2).
    for (GraphletId gid : ready) {
      ctx.gtracker.MarkSubmitted(gid);
      Status st = RunGraphlet(&ctx, gid);
      if (!st.ok()) {
        failure = st;
        break;
      }
      if (GraphletComplete(&ctx, gid)) {
        ctx.gtracker.MarkComplete(gid);
      } else {
        // Recovery reset one of its dependencies mid-run (a machine
        // died with cross-graphlet inputs): leave the graphlet open and
        // re-enter the scheduler so upstream work re-runs first.
        ctx.gtracker.Reset(gid);
        break;
      }
    }
  }

  shuffle_->RemoveJob(job);
  gangs_->EndJob(job);
  {
    // An unconsumed one-shot injection must not leak into a later job —
    // but only this job's claims are swept; injections claimed by a
    // concurrently running job stay pending for it.
    std::lock_guard<std::mutex> lock(mu_);
    active_jobs_ -= 1;
    for (auto it = injected_.begin(); it != injected_.end();) {
      it = it->second.claimed_by == job ? injected_.erase(it)
                                        : std::next(it);
    }
  }
  if (!failure.ok()) return failure;
  if (!ctx.tracker.AllComplete()) {
    return Status::Internal("job ended with incomplete tasks");
  }
  JobRunReport report;
  report.result = std::move(ctx.final_result);
  report.stats = ctx.stats;
  // Service-wide aggregate: under concurrent RunPlan these counters mix
  // all in-flight jobs (per-job shuffle attribution lives in the obs
  // layer's byte-conservation counters keyed by the shared registry).
  report.stats.shuffle = shuffle_->stats();
  return report;
}

Status LocalRuntime::RunGraphlet(JobContext* ctx, GraphletId gid) {
  const Graphlet& g =
      ctx->graphlets.graphlets[static_cast<std::size_t>(gid)];
  const JobDag& dag = ctx->plan->dag;
  obs::Span graphlet_meta;
  if (tracer_ != nullptr) {
    graphlet_meta.name = StrFormat("graphlet%d", gid);
    graphlet_meta.category = "graphlet";
    graphlet_meta.job = ctx->job;
  }
  obs::ScopedSpan graphlet_span(tracer_, std::move(graphlet_meta));
  const auto graphlet_t0 = std::chrono::steady_clock::now();
  const int64_t busy_before = ctx->busy_ns.load(std::memory_order_relaxed);

  // Cluster state feeds the arbiter: dead machines hold no executors,
  // drained machines take no new tasks. Read the health picture under
  // mu_, push it without the lock held (mu_ -> arbiter mutex is the one
  // permitted lock order; see GangScheduler's threading contract).
  {
    std::vector<int> revoked;
    std::vector<std::pair<int, bool>> read_only;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int m = 0; m < config_.machines; ++m) {
        if (down_.count(m) > 0 || detected_.count(m) > 0) {
          revoked.push_back(m);
        } else {
          read_only.emplace_back(m, health_.IsReadOnly(m));
        }
      }
    }
    for (int m : revoked) gangs_->RevokeMachine(m);
    for (auto [m, ro] : read_only) gangs_->SetReadOnly(m, ro);
  }

  // Gang allocation: one executor per task of the graphlet, with
  // synthetic data locality for scan tasks (spread across machines).
  std::vector<TaskRef> members;
  std::vector<LocalityPref> prefs;
  for (StageId sid : g.stages) {
    const StageProgram& prog = ctx->plan->program(sid);
    for (int t = 0; t < prog.task_count; ++t) {
      members.push_back(TaskRef{sid, t});
      if (!prog.scan_table.empty()) {
        prefs.push_back({t % config_.machines});
      } else {
        prefs.push_back({});
      }
    }
  }
  auto gang = [&] {
    obs::Span gang_meta;
    if (tracer_ != nullptr) {
      gang_meta.name = StrFormat("gang%d", gid);
      gang_meta.category = "gang";
      gang_meta.job = ctx->job;
    }
    obs::ScopedSpan gang_span(tracer_, std::move(gang_meta));
    return gangs_->AcquireGang(ctx->job, prefs);
  }();
  if (!gang.ok()) {
    return gang.status().WithContext(StrFormat(
        "gang-scheduling graphlet %d (%zu tasks); raise "
        "executors_per_machine", gid, members.size()));
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    ctx->placement[members[i]] = (*gang)[i];
  }

  // Stage waves in topological order, re-looping while recovery resets
  // tasks. Intra-graphlet edges are pipeline edges; wave granularity is
  // the batch-level pipelining of the reproduction.
  std::vector<StageId> order;
  for (StageId s : dag.topological_order()) {
    if (g.Contains(s)) order.push_back(s);
  }
  for (;;) {
    bool all_done = true;
    bool progressed = false;
    bool blocked_external = false;
    for (StageId sid : order) {
      std::vector<int> pending;
      const StageProgram& prog = ctx->plan->program(sid);
      for (int t = 0; t < prog.task_count; ++t) {
        if (ctx->tracker.state(TaskRef{sid, t}) != TaskState::kCompleted) {
          pending.push_back(t);
        }
      }
      if (pending.empty()) continue;
      all_done = false;
      if (!ctx->tracker.StagesComplete(dag.inputs(sid))) {
        // Distinguish "waiting on a sibling stage of this graphlet"
        // from "recovery reset an upstream graphlet" — the latter
        // suspends this graphlet so the scheduler re-runs upstream.
        for (StageId in : dag.inputs(sid)) {
          if (!g.Contains(in) && !ctx->tracker.StagesComplete({in})) {
            blocked_external = true;
          }
        }
        continue;
      }
      Status st = RunStageWave(ctx, sid, pending);
      if (!st.ok()) {
        gangs_->ReleaseGang(ctx->job, *gang);
        return st;
      }
      progressed = true;
    }
    if (all_done) break;
    if (!progressed) {
      gangs_->ReleaseGang(ctx->job, *gang);
      if (blocked_external) return Status::OK();  // suspended
      return Status::Internal(
          StrFormat("graphlet %d stalled: no runnable stage", gid));
    }
    // Cooperative preemption: the arbiter may ask this job to hand its
    // gang back at a wave boundary so a higher-class job can run. The
    // graphlet stays incomplete, which routes it through the same
    // "suspended -> re-queue" path recovery already exercises.
    if (gangs_->ShouldYield(ctx->job)) {
      gangs_->ReleaseGang(ctx->job, *gang);
      {
        std::lock_guard<std::mutex> lock(ctx->mu);
        ctx->stats.gang_yields += 1;
      }
      ctx->yields += 1;
      obs::Add(metrics_.gang_yields, 1);
      return Status::OK();  // suspended by preemption
    }
  }
  gangs_->ReleaseGang(ctx->job, *gang);
  if (metrics_.graphlet_idle_ratio != nullptr && !members.empty()) {
    // Executor idle ratio over this graphlet's gang (Fig. 3): wall time
    // the gang held its executors minus time actually spent in tasks.
    const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - graphlet_t0)
                             .count();
    const int64_t busy_ns =
        ctx->busy_ns.load(std::memory_order_relaxed) - busy_before;
    const double capacity_ns =
        static_cast<double>(wall_ns) * static_cast<double>(members.size());
    if (capacity_ns > 0.0) {
      const double idle =
          std::max(0.0, 1.0 - static_cast<double>(busy_ns) / capacity_ns);
      obs::Record(metrics_.graphlet_idle_ratio, idle);
      obs::Set(metrics_.executor_idle_ratio, idle);
    }
  }
  return Status::OK();
}

bool LocalRuntime::GraphletComplete(JobContext* ctx, GraphletId gid) {
  const Graphlet& g =
      ctx->graphlets.graphlets[static_cast<std::size_t>(gid)];
  for (StageId sid : g.stages) {
    const StageProgram& prog = ctx->plan->program(sid);
    for (int t = 0; t < prog.task_count; ++t) {
      if (ctx->tracker.state(TaskRef{sid, t}) != TaskState::kCompleted) {
        return false;
      }
    }
  }
  return true;
}

Status LocalRuntime::RunStageWave(JobContext* ctx, StageId stage,
                                  const std::vector<int>& tasks) {
  struct Outcome {
    TaskRef task;
    Status status;
  };
  std::vector<Outcome> outcomes(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskRef task{stage, tasks[i]};
    ctx->tracker.SetState(task, TaskState::kRunning);
    outcomes[i].task = task;
  }
  {
    obs::Span wave_meta;
    if (tracer_ != nullptr) {
      wave_meta.name = StrFormat("wave.s%d", stage);
      wave_meta.category = "wave";
      wave_meta.stage = stage;
      wave_meta.job = ctx->job;
    }
    obs::ScopedSpan wave_span(tracer_, std::move(wave_meta));
    // Dispatch the wave to the executor thread pool and wait on this
    // wave's own latch — not ThreadPool::Wait(), which blocks on every
    // pool task and would let concurrent RunPlan calls stall each other.
    WaitGroup wg(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const TaskRef task = outcomes[i].task;
      Outcome* slot = &outcomes[i];
      const int machine = ResolveMachine(ctx, task);
      obs::Add(metrics_.tasks_started);
      const auto enqueued = std::chrono::steady_clock::now();
      const bool submitted = pool_->Submit([this, ctx, task, machine, slot,
                                            enqueued, &wg] {
        if (metrics_.queue_wait != nullptr) {
          const double wait_s =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            enqueued)
                  .count();
          obs::Record(metrics_.queue_wait, wait_s);
          obs::Set(metrics_.queue_wait_last, wait_s);
        }
        slot->status = RunTask(ctx, task, machine);
        wg.Done();
      });
      if (!submitted) {
        slot->status = Status::Internal("executor pool shut down mid-wave");
        wg.Done();
      }
    }
    wg.Wait();
  }

  for (Outcome& o : outcomes) {
    // Count every outcome up front so started == completed + failed
    // holds even when failure handling aborts the job mid-wave.
    obs::Add(o.status.ok() ? metrics_.tasks_completed : metrics_.tasks_failed);
    if (o.status.ok()) {
      ctx->tracker.SetState(o.task, TaskState::kCompleted);
      std::lock_guard<std::mutex> lock(ctx->mu);
      ctx->stats.tasks_executed += 1;
    }
  }
  // One heartbeat interval elapses per wave; detection of silent
  // machines (and probation expirations) runs here, between waves.
  SWIFT_RETURN_NOT_OK(TickClusterHealth(ctx));
  for (Outcome& o : outcomes) {
    if (!o.status.ok()) {
      {
        std::lock_guard<std::mutex> lock(ctx->mu);
        ctx->stats.tasks_executed += 1;
      }
      SWIFT_RETURN_NOT_OK(
          HandleFailure(ctx, o.task, FailureKindOf(o.status), o.status));
    }
  }
  return Status::OK();
}

Status LocalRuntime::HandleFailure(JobContext* ctx, const TaskRef& task,
                                   FailureKind kind, const Status& error) {
  if (kind != FailureKind::kApplicationError) {
    // The failed-RPC detection path (Sec. IV-A): a machine-flavored
    // failure surfaces dead machines before the heartbeat deadline.
    SWIFT_RETURN_NOT_OK(DetectDownMachines(ctx));
    // A machine-loss cascade may already have replanned this task.
    if (ctx->tracker.state(task) == TaskState::kPending) return Status::OK();
  }
  const bool was_completed =
      ctx->tracker.state(task) == TaskState::kCompleted;
  ctx->tracker.SetState(task, TaskState::kFailed);

  RecoveryContext rctx;
  rctx.executed = ctx->tracker.CompletedTasks();
  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    auto it = ctx->received_by.find(task);
    if (it != ctx->received_by.end()) rctx.received_output = it->second;
  }
  rctx.failed_output_available = was_completed && OutputsAvailable(ctx, task);

  RecoveryDecision decision = ctx->recovery.Plan(task, kind, rctx);
  if (decision.report_only) {
    // Sec. IV-C: application failures are reported, never retried.
    return error.WithContext("application failure, recovery skipped");
  }
  // An attempt is charged only when the task will run again: a kNone
  // decision on a completed task restores it and re-runs nothing (the
  // paper's useless-recovery avoidance), so it must not eat the budget.
  const bool restores_task =
      decision.kase == RecoveryCase::kNone && was_completed;
  if (!restores_task) {
    int attempt;
    {
      std::lock_guard<std::mutex> lock(ctx->mu);
      attempt = ++ctx->attempts[task];
    }
    if (attempt >= config_.max_task_attempts) {
      return error.WithContext(StrFormat(
          "task %s failed %d times", task.ToString().c_str(), attempt));
    }
  }
  {
    auto it = ctx->placement.find(task);
    RecordMachineFailure(it != ctx->placement.end() ? it->second.machine
                                                     : 0);
  }
  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->stats.recoveries += 1;
    ctx->stats.recoveries_by_case[decision.kase] += 1;
    ctx->stats.resend_notifications +=
        static_cast<int>(decision.resend_upstream.size());
    ctx->stats.tasks_rerun += static_cast<int>(decision.rerun.size());
    ctx->stats.job_restart_equivalent_tasks +=
        static_cast<int64_t>(ctx->recovery.JobRestartRerunSet(rctx).size());
    obs::Add(metrics_.recoveries);
    obs::Add(metrics_.recovery_by_case[static_cast<int>(decision.kase)]);
    obs::Add(metrics_.resend_notifications,
             static_cast<int64_t>(decision.resend_upstream.size()));
    obs::Add(metrics_.tasks_rerun,
             static_cast<int64_t>(decision.rerun.size()));
    obs::Add(metrics_.restart_equivalent_tasks,
             static_cast<int64_t>(ctx->recovery.JobRestartRerunSet(rctx).size()));
  }
  SWIFT_LOG(Info) << "recovered " << task.ToString() << " via "
                  << RecoveryCaseToString(decision.kase) << " (rerun "
                  << decision.rerun.size() << ", resend "
                  << decision.resend_upstream.size() << ")";
  if (decision.kase == RecoveryCase::kNone) {
    // Every consumer already holds the data; the completed task stays
    // completed (the paper's recovery-avoidance for consumed outputs).
    if (restores_task) ctx->tracker.SetState(task, TaskState::kCompleted);
    return Status::OK();
  }
  for (StageId s : decision.invalidate_outputs) {
    shuffle_->RemoveStageOutput(ctx->job, s);
  }
  for (const TaskRef& t : decision.rerun) {
    ResetTask(ctx, t);
  }
  // A machine loss can also take the rerun's *inputs*: re-run any
  // producer whose retained slot feeding `task` is gone (Fig. 7(a)).
  return EnsureInputsAvailable(ctx, task);
}

void LocalRuntime::ResetTask(JobContext* ctx, const TaskRef& t) {
  ctx->tracker.Reset(t);
  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->received_by.erase(t);
    for (auto& [producer, consumers] : ctx->received_by) {
      consumers.erase(t);
    }
  }
  // Re-open the task's graphlet so the scheduler resubmits it.
  ctx->gtracker.Reset(ctx->graphlets.GraphletOf(t.stage));
}

bool LocalRuntime::OutputsAvailable(JobContext* ctx, const TaskRef& task) {
  const StageId consumer = ctx->plan->ConsumerOf(task.stage);
  if (consumer < 0) {
    std::lock_guard<std::mutex> lock(ctx->mu);
    return ctx->has_result;  // final stage: delivered to the client
  }
  const StageProgram& consumer_prog = ctx->plan->program(consumer);
  const ShuffleKind kind = shuffle_->KindFor(
      ctx->plan->dag.ShuffleEdgeSize(task.stage, consumer));
  for (int dst = 0; dst < consumer_prog.task_count; ++dst) {
    const ShuffleSlotKey key{ctx->job, task.stage, task.task, consumer, dst};
    if (!shuffle_->PartitionAvailable(kind, key)) return false;
  }
  return true;
}

Status LocalRuntime::EnsureInputsAvailable(JobContext* ctx,
                                           const TaskRef& task) {
  const StageProgram& prog = ctx->plan->program(task.stage);
  if (!prog.scan_table.empty()) return Status::OK();
  const JobDag& dag = ctx->plan->dag;
  for (StageId src : prog.inputs) {
    const StageProgram& producer = ctx->plan->program(src);
    const ShuffleKind kind =
        shuffle_->KindFor(dag.ShuffleEdgeSize(src, task.stage));
    for (int st = 0; st < producer.task_count; ++st) {
      const TaskRef p{src, st};
      if (ctx->tracker.state(p) != TaskState::kCompleted) continue;
      const ShuffleSlotKey key{ctx->job, src, st, task.stage, task.task};
      if (shuffle_->PartitionAvailable(kind, key)) continue;
      SWIFT_RETURN_NOT_OK(HandleFailure(
          ctx, p, FailureKind::kMachineFailure,
          Status::MachineUnhealthy(StrFormat(
              "retained slot %s lost", key.ToString().c_str()))));
    }
  }
  return Status::OK();
}

Status LocalRuntime::TickClusterHealth(JobContext* ctx) {
  std::vector<int> lost;
  std::vector<int> restored;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The logical heartbeat clock advances one interval per *cluster*
    // tick. Every running job ticks once per wave, so each job advances
    // its share; otherwise N concurrent jobs would make failure
    // detection and probation windows N times faster than configured.
    clock_ += heartbeat_.interval() / std::max(1, active_jobs_);
    for (int m = 0; m < config_.machines; ++m) {
      if (down_.count(m) == 0) {
        heartbeat_.ReportHeartbeat(m, clock_);
      } else if (detected_.count(m) == 0) {
        // A silent machine misses one heartbeat per tick until the
        // monitor declares it failed.
        obs::Add(metrics_.heartbeat_misses);
      }
    }
    for (int m : heartbeat_.DetectFailed(clock_)) {
      if (detected_.insert(m).second) {
        lost.push_back(m);
        RecordDetectionDelayLocked(m);
      }
    }
    // Probation: drained machines with a clean window rejoin.
    for (int m : health_.ClearExpired(clock_)) {
      restored.push_back(m);
      SWIFT_LOG(Info) << "machine " << m
                      << " back in rotation after clean probation";
    }
  }
  for (int m : restored) gangs_->SetReadOnly(m, false);
  for (int m : lost) {
    SWIFT_RETURN_NOT_OK(HandleMachineLoss(ctx, m));
  }
  return Status::OK();
}

void LocalRuntime::RecordDetectionDelayLocked(int machine) {
  auto it = down_since_.find(machine);
  if (it == down_since_.end()) return;
  obs::Record(metrics_.detection_delay, clock_ - it->second);
}

Status LocalRuntime::DetectDownMachines(JobContext* ctx) {
  std::vector<int> lost;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int m : down_) {
      if (detected_.insert(m).second) {
        lost.push_back(m);
        RecordDetectionDelayLocked(m);
      }
    }
  }
  for (int m : lost) {
    SWIFT_RETURN_NOT_OK(HandleMachineLoss(ctx, m));
  }
  return Status::OK();
}

Status LocalRuntime::HandleMachineLoss(JobContext* ctx, int machine) {
  SWIFT_LOG(Warn) << "machine " << machine
                  << " loss detected: replanning its retained outputs";
  gangs_->RevokeMachine(machine);
  // The drain's last-machine rule (RecordMachineFailure) also holds on
  // loss: when no live machine still takes new tasks, the lowest-id live
  // one rejoins rotation, or every later gang request would strand.
  int rejoin = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int m = 0; m < config_.machines; ++m) {
      if (down_.count(m) > 0 || detected_.count(m) > 0) continue;
      if (!health_.IsReadOnly(m)) {
        rejoin = -1;
        break;
      }
      if (rejoin < 0) rejoin = m;
    }
    if (rejoin >= 0) health_.Clear(rejoin);
  }
  if (rejoin >= 0) {
    gangs_->SetReadOnly(rejoin, false);
    SWIFT_LOG(Info) << "machine " << rejoin
                    << " back in rotation: no other live machine takes tasks";
  }
  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->stats.machine_failures += 1;
    obs::Add(metrics_.machine_failures);
  }
  // Completed tasks that ran there lost their retained outputs with the
  // Cache Worker; replan each unless a replica survives (Fig. 7).
  std::vector<TaskRef> victims;
  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    for (const auto& [t, wm] : ctx->writer_machine) {
      if (wm == machine) victims.push_back(t);
    }
  }
  for (const TaskRef& t : victims) {
    if (ctx->tracker.state(t) != TaskState::kCompleted) continue;
    if (OutputsAvailable(ctx, t)) continue;
    SWIFT_RETURN_NOT_OK(HandleFailure(
        ctx, t, FailureKind::kMachineFailure,
        Status::MachineUnhealthy(StrFormat(
            "machine %d died holding retained output of %s", machine,
            t.ToString().c_str()))));
  }
  return Status::OK();
}

void LocalRuntime::RecordMachineFailure(int machine) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool was_read_only = health_.IsReadOnly(machine);
  health_.RecordTaskFailure(machine, clock_);
  if (was_read_only || !health_.IsReadOnly(machine)) return;
  // Drain read-only only while at least one other machine still takes
  // new tasks; never strand the job.
  int available = 0;
  for (int m = 0; m < config_.machines; ++m) {
    if (m == machine || down_.count(m) > 0 || detected_.count(m) > 0) {
      continue;
    }
    if (!health_.IsReadOnly(m)) available += 1;
  }
  if (available == 0) {
    health_.Clear(machine);
    return;
  }
  gangs_->SetReadOnly(machine, true);
  SWIFT_LOG(Info) << "machine " << machine
                  << " drained read-only after repeated task failures";
}

int LocalRuntime::ResolveMachine(JobContext* ctx, const TaskRef& task) {
  auto it = ctx->placement.find(task);
  int preferred = it != ctx->placement.end() ? it->second.machine : 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto alive = [this](int m) {
    return down_.count(m) == 0 && detected_.count(m) == 0;
  };
  if (alive(preferred) && !health_.IsReadOnly(preferred)) return preferred;
  // Deterministic failover: the next live, undrained machine; if every
  // live machine is drained, any live one (drain is best-effort).
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 1; k <= config_.machines; ++k) {
      const int m = (preferred + k) % config_.machines;
      if (!alive(m)) continue;
      if (pass == 0 && health_.IsReadOnly(m)) continue;
      ctx->placement[task] = ExecutorId{m, -1};
      return m;
    }
  }
  return preferred;  // no machine is alive; the task fails upstream
}

Result<OperatorPtr> LocalRuntime::BuildTaskTree(JobContext* ctx,
                                                const StageProgram& program,
                                                const TaskRef& task,
                                                int machine) {
  const JobDag& dag = ctx->plan->dag;
  const std::size_t morsel_rows =
      config_.morsel_rows <= 0 ? kDefaultMorselRows
                               : static_cast<std::size_t>(config_.morsel_rows);
  std::vector<OperatorPtr> sources;
  if (!program.scan_table.empty()) {
    SWIFT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                           catalog_.Lookup(program.scan_table));
    // The slice streams out of the table's store as ~morsel_rows-row
    // morsels of just the columns the stage reads; the task slice is
    // never materialized whole.
    sources.push_back(MakeTableMorselSource(table, task.task,
                                            program.task_count,
                                            program.scan_schema, morsel_rows,
                                            program.scan_columns));
  } else {
    for (StageId src : program.inputs) {
      const StageProgram& producer = ctx->plan->program(src);
      const ShuffleKind kind =
          shuffle_->KindFor(dag.ShuffleEdgeSize(src, task.stage));
      std::vector<ColumnBatch> batches;
      for (int st = 0; st < producer.task_count; ++st) {
        ShuffleSlotKey key{ctx->job, src, st, task.stage, task.task};
        int writer = 0;
        {
          std::lock_guard<std::mutex> lock(ctx->mu);
          auto it = ctx->writer_machine.find(TaskRef{src, st});
          if (it == ctx->writer_machine.end()) {
            return Status::Internal(StrFormat(
                "no recorded writer machine for %s",
                TaskRef{src, st}.ToString().c_str()));
          }
          writer = it->second;
        }
        SWIFT_ASSIGN_OR_RETURN(
            ColumnBatch b, FetchShuffleInput(ctx, kind, key, machine, writer));
        batches.push_back(std::move(b));
        {
          // This task now holds the producer's output — the planner's
          // received_output set for any later failure of that producer.
          std::lock_guard<std::mutex> lock(ctx->mu);
          ctx->received_by[TaskRef{src, st}].insert(task);
        }
      }
      // Decoded shuffle batches re-enter the tree as morsels so
      // downstream pipelines stay O(morsel)-resident here too.
      sources.push_back(MakeMorselSource(producer.output_schema,
                                         std::move(batches), morsel_rows));
    }
  }

  OperatorPtr tree;
  std::size_t first_op = 0;
  if (!program.ops.empty() &&
      (program.ops[0].kind == LocalOpDesc::Kind::kHashJoin ||
       program.ops[0].kind == LocalOpDesc::Kind::kMergeJoin)) {
    if (sources.size() != 2) {
      return Status::Internal("join stage requires exactly two inputs");
    }
    const LocalOpDesc& jd = program.ops[0];
    OperatorPtr left = std::move(sources[0]);
    OperatorPtr right = std::move(sources[1]);
    const JoinType jt =
        jd.left_outer ? JoinType::kLeftOuter : JoinType::kInner;
    if (jd.kind == LocalOpDesc::Kind::kMergeJoin) {
      left = MakeSort(std::move(left), AscendingKeys(jd.left_keys));
      right = MakeSort(std::move(right), AscendingKeys(jd.right_keys));
      tree = MakeMergeJoin(std::move(left), std::move(right), jd.left_keys,
                           jd.right_keys, jt);
    } else {
      tree = MakeHashJoin(std::move(left), std::move(right), jd.left_keys,
                          jd.right_keys, jt);
    }
    first_op = 1;
  } else {
    if (sources.size() != 1) {
      return Status::Internal(StrFormat(
          "stage %s expects one input, has %zu", program.name.c_str(),
          sources.size()));
    }
    tree = std::move(sources[0]);
  }

  std::size_t first_chain_op = first_op;
  if (first_op == 0) {
    // Intra-task morsel parallelism: the leading filter/project chain
    // has no pipeline breakers, so independent morsels fan out across
    // idle pool workers with an order-restoring merge — results stay
    // byte-identical to serial execution. Breakers (sort, aggregate,
    // window, limit) and everything after them run on the merged stream
    // as before.
    std::vector<MorselStep> steps;
    while (first_chain_op < program.ops.size()) {
      const LocalOpDesc& op = program.ops[first_chain_op];
      if (op.kind == LocalOpDesc::Kind::kFilter) {
        MorselStep st;
        st.kind = MorselStep::Kind::kFilter;
        st.predicate = op.predicate;
        steps.push_back(std::move(st));
      } else if (op.kind == LocalOpDesc::Kind::kProject) {
        MorselStep st;
        st.kind = MorselStep::Kind::kProject;
        st.exprs = op.exprs;
        st.names = op.names;
        steps.push_back(std::move(st));
      } else {
        break;
      }
      ++first_chain_op;
    }
    const int lanes = config_.morsel_lanes <= 0 ? config_.worker_threads
                                                : config_.morsel_lanes;
    if (!steps.empty() && lanes > 1) {
      MorselObs mobs;
      mobs.metrics = config_.metrics;
      mobs.tracer = config_.tracer;
      tree = MakeParallelMorselPipeline(std::move(tree), std::move(steps),
                                        pool_.get(), lanes, mobs);
    } else {
      first_chain_op = first_op;  // serial: keep the plain operator chain
    }
  }

  for (std::size_t i = first_chain_op; i < program.ops.size(); ++i) {
    const LocalOpDesc& op = program.ops[i];
    switch (op.kind) {
      case LocalOpDesc::Kind::kFilter:
        tree = MakeFilter(std::move(tree), op.predicate);
        break;
      case LocalOpDesc::Kind::kProject:
        tree = MakeProject(std::move(tree), op.exprs, op.names);
        break;
      case LocalOpDesc::Kind::kSort:
        tree = MakeSort(std::move(tree), op.sort_keys);
        break;
      case LocalOpDesc::Kind::kHashAggregate:
        tree = MakeHashAggregate(std::move(tree), op.exprs, op.names,
                                 op.aggs);
        break;
      case LocalOpDesc::Kind::kStreamedAggregate:
        tree = MakeSort(std::move(tree), AscendingKeys(op.exprs));
        tree = MakeStreamedAggregate(std::move(tree), op.exprs, op.names,
                                     op.aggs);
        break;
      case LocalOpDesc::Kind::kLimit:
        tree = MakeLimit(std::move(tree), op.limit);
        break;
      case LocalOpDesc::Kind::kWindow:
        tree = MakeWindow(std::move(tree), op.partition_by, op.sort_keys,
                          op.window_func, op.window_arg, op.output_name);
        break;
      case LocalOpDesc::Kind::kHashJoin:
      case LocalOpDesc::Kind::kMergeJoin:
        return Status::Internal("join must be the first stage operator");
    }
  }
  return tree;
}

void LocalRuntime::NoteDecompressed(JobContext* ctx, std::string_view wire) {
  if (!IsCompressedFrame(wire)) return;
  Result<uint64_t> raw = CompressedFrameRawLength(wire);
  const int64_t raw_len = raw.ok() ? static_cast<int64_t>(*raw) : 0;
  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->stats.decompressed_frames += 1;
    ctx->stats.decompressed_bytes += raw_len;
  }
  obs::Add(metrics_.decompress_frames);
  obs::Add(metrics_.decompress_bytes, raw_len);
}

Result<ColumnBatch> LocalRuntime::FetchShuffleInput(JobContext* ctx,
                                                    ShuffleKind kind,
                                                    const ShuffleSlotKey& key,
                                                    int reader, int writer) {
  for (int refetch = 0;; ++refetch) {
    Result<ShuffleBuffer> buffer =
        shuffle_->ReadPartition(kind, key, reader, writer);
    if (!buffer.ok()) {
      if (buffer.status().code() == StatusCode::kNotFound) {
        // The retained slot is gone — a machine died holding it.
        // NotFound would be misread as an application error; surface it
        // as machine-level so recovery re-runs the producer.
        return Status::MachineUnhealthy(
            std::string(buffer.status().message()));
      }
      return buffer.status();  // timeout budget exhausted etc.
    }
    Result<ColumnBatch> batch = DeserializeColumnBatch(buffer->view());
    if (batch.ok()) {
      NoteDecompressed(ctx, buffer->view());
      return batch;
    }
    if (refetch >= config_.max_corrupt_rereads) {
      return batch.status().WithContext(StrFormat(
          "payload %s rejected %d times", key.ToString().c_str(),
          refetch + 1));
    }
    // The CRC-32C footer rejected the payload (bit flip in flight):
    // drop this copy and re-fetch from the shuffle fabric.
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->stats.corrupt_read_retries += 1;
    obs::Add(metrics_.corrupt_read_retries);
  }
}

Status LocalRuntime::RunTask(JobContext* ctx, const TaskRef& task,
                             int machine) {
  int attempt;
  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    attempt = ctx->attempts[task];
  }
  obs::Span task_meta;
  if (tracer_ != nullptr) {
    task_meta.name = task.ToString();
    task_meta.category = "task";
    task_meta.machine = machine;
    task_meta.stage = task.stage;
    task_meta.task = task.task;
    task_meta.attempt = attempt;
    task_meta.job = ctx->job;
  }
  obs::ScopedSpan task_span(tracer_, std::move(task_meta));
  struct BusyClock {
    JobContext* ctx;
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    ~BusyClock() {
      ctx->busy_ns.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count(),
          std::memory_order_relaxed);
    }
  } busy{ctx};
  if (injector_ != nullptr) {
    const TaskFault fault = injector_->OnTaskStart(task, attempt);
    if (fault.kill_machine.has_value()) FailMachine(*fault.kill_machine);
    if (fault.fail.has_value()) return StatusForFailure(*fault.fail, task);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = injected_.find(task);
    if (it != injected_.end() && (it->second.claimed_by == 0 ||
                                  it->second.claimed_by == ctx->job)) {
      const FailureKind kind = it->second.kind;
      injected_.erase(it);
      return StatusForFailure(kind, task);
    }
    if (down_.count(machine) > 0) {
      return Status::MachineUnhealthy(StrFormat(
          "task %s placed on dead machine %d", task.ToString().c_str(),
          machine));
    }
  }
  const StageProgram& program = ctx->plan->program(task.stage);
  SWIFT_ASSIGN_OR_RETURN(OperatorPtr tree,
                         BuildTaskTree(ctx, program, task, machine));
  SWIFT_ASSIGN_OR_RETURN(ColumnBatch out, CollectAllColumnar(tree.get()));
  {
    // A machine killed mid-run takes its in-flight task results along.
    std::lock_guard<std::mutex> lock(mu_);
    if (down_.count(machine) > 0) {
      return Status::MachineUnhealthy(StrFormat(
          "machine %d died while %s ran", machine,
          task.ToString().c_str()));
    }
  }

  const JobDag& dag = ctx->plan->dag;
  const StageId consumer = ctx->plan->ConsumerOf(task.stage);
  if (consumer < 0) {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->final_result = ToRowBatch(out);
    ctx->has_result = true;
    ctx->writer_machine[task] = machine;
    return Status::OK();
  }
  const StageProgram& consumer_prog = ctx->plan->program(consumer);
  const ShuffleKind kind =
      shuffle_->KindFor(dag.ShuffleEdgeSize(task.stage, consumer));
  const bool pipelined =
      dag.EdgeKindOf(task.stage, consumer) == EdgeKind::kPipeline;

  std::vector<ColumnBatch> parts;
  if (program.output_partition_keys.empty()) {
    parts.resize(static_cast<std::size_t>(consumer_prog.task_count));
    for (ColumnBatch& p : parts) p.schema = out.schema;
    parts[0] = std::move(out);
  } else {
    SWIFT_ASSIGN_OR_RETURN(
        parts, HashPartitionColumnar(out, program.output_partition_keys,
                                     consumer_prog.task_count));
  }
  for (int dst = 0; dst < consumer_prog.task_count; ++dst) {
    ShuffleSlotKey key{ctx->job, task.stage, task.task, consumer, dst};
    // One allocation per partition: the shuffle plane (direct slot,
    // workers, retained recovery slots, re-sends) shares this buffer.
    std::string payload =
        SerializeColumnBatch(parts[static_cast<std::size_t>(dst)]);
    SWIFT_RETURN_NOT_OK(shuffle_->WritePartition(
        kind, key, ShuffleBuffer(std::move(payload)), machine, pipelined));
  }
  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->writer_machine[task] = machine;
  }
  return Status::OK();
}

}  // namespace swift
