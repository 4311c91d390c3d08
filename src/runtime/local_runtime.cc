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
#include "scheduler/job_scheduler.h"

namespace swift {

namespace {

// Re-fetches of a shuffle payload whose CRC-32C footer failed.
constexpr int kMaxCorruptRereads = 2;
// Read-only drain (Sec. IV-A): the sliding window failures count in, and
// the clean time after which a drained machine returns to rotation.
constexpr double kHealthWindowSeconds = 60.0;
constexpr double kHealthProbationSeconds = 120.0;

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

// Puts the operator `op` describes on top of `tree`.
Result<OperatorPtr> AppendOp(OperatorPtr tree, const LocalOpDesc& op) {
  switch (op.kind) {
    case LocalOpDesc::Kind::kFilter:
      return MakeFilter(std::move(tree), op.predicate);
    case LocalOpDesc::Kind::kProject:
      return MakeProject(std::move(tree), op.exprs, op.names);
    case LocalOpDesc::Kind::kSort:
      return MakeSort(std::move(tree), op.sort_keys);
    case LocalOpDesc::Kind::kHashAggregate:
      return MakeHashAggregate(std::move(tree), op.exprs, op.names, op.aggs);
    case LocalOpDesc::Kind::kStreamedAggregate:
      // A global aggregate (no GROUP BY) has nothing to sort by: a
      // zero-key sort would only drain and copy its input.
      if (!op.exprs.empty()) {
        tree = MakeSort(std::move(tree), AscendingKeys(op.exprs));
      }
      return MakeStreamedAggregate(std::move(tree), op.exprs, op.names,
                                   op.aggs);
    case LocalOpDesc::Kind::kLimit:
      return MakeLimit(std::move(tree), op.limit);
    case LocalOpDesc::Kind::kWindow:
      return MakeWindow(std::move(tree), op.partition_by, op.sort_keys,
                        op.window_func, op.window_arg, op.output_name);
    case LocalOpDesc::Kind::kHashJoin:
    case LocalOpDesc::Kind::kMergeJoin:
      break;
  }
  return Status::Internal("join must be the first stage operator");
}

}  // namespace

struct LocalRuntime::JobContext {
  JobContext(JobId job_id, const DistributedPlan* p, GraphletPlan g,
             int max_task_attempts)
      : job(job_id),
        plan(p),
        graphlets(std::move(g)),
        sched(&p->dag, &graphlets, max_task_attempts) {}

  JobId job;
  const DistributedPlan* plan;
  GraphletPlan graphlets;
  /// Reported to by the driver thread only; tasks read their producers'
  /// machines from it while the driver waits on their wave.
  JobScheduler sched;
  std::map<TaskRef, ExecutorId> placement;
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
      health_(config_.health_failure_threshold, kHealthWindowSeconds,
              kHealthProbationSeconds),
      arbiter_(GangArbiterConfig{
          .machines = config_.machines,
          .executors_per_machine = config_.executors_per_machine,
          .fair_share = config_.fair_share,
          .metrics = config_.metrics}) {
  ShuffleService::Config sc;
  sc.machines = config_.machines;
  sc.cache_memory_per_worker = config_.cache_memory_per_worker;
  sc.spill_root = config_.spill_root;
  sc.force_kind = config_.force_shuffle_kind;
  sc.retain_for_recovery = true;
  sc.spill_disk_budget_bytes = config_.spill_disk_budget_bytes;
  sc.put_retry_budget = config_.shuffle_put_retry_budget;
  sc.put_wait_ms = config_.shuffle_put_wait_ms;
  sc.compression = config_.shuffle_compression;
  sc.replica_fanout = config_.shuffle_replica_fanout;
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
    if (!down_.emplace(machine, clock_).second) return;
  }
  // Placement and the arbiter stop using the machine at once; detection
  // (heartbeats or a failed read) decides only when recovery runs.
  arbiter_.RevokeMachine(machine);
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
    health_.Clear(machine);
    heartbeat_.ReportHeartbeat(machine, clock_);
  }
  shuffle_->RestoreMachine(machine);
  // Back with a clean health record: schedulable again, drained no more.
  arbiter_.RestoreMachine(machine);
  arbiter_.SetReadOnly(machine, false);
}

std::vector<int> LocalRuntime::DownMachines() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  for (const auto& [m, since] : down_) out.push_back(m);
  return out;
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
  JobContext ctx(job, &plan, std::move(graphlets), config_.max_task_attempts);
  arbiter_.BeginJob(job, opts);
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
  Status failure = Status::OK();
  while (failure.ok()) {
    Result<std::optional<GraphletId>> next = ctx.sched.NextGraphlet();
    if (!next.ok()) {
      failure = next.status();
    } else if (!next->has_value()) {
      break;  // every task completed
    } else {
      failure = RunGraphlet(&ctx, **next);
    }
  }

  shuffle_->RemoveJob(job);
  arbiter_.EndJob(job);
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
  obs::Span graphlet_meta;
  if (tracer_ != nullptr) {
    graphlet_meta.name = StrFormat("graphlet%d", gid);
    graphlet_meta.category = "graphlet";
    graphlet_meta.job = ctx->job;
  }
  obs::ScopedSpan graphlet_span(tracer_, std::move(graphlet_meta));
  const auto graphlet_t0 = std::chrono::steady_clock::now();
  const int64_t busy_before = ctx->busy_ns.load(std::memory_order_relaxed);

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
  ctx->sched.GraphletQueued(gid);
  auto gang = [&] {
    obs::Span gang_meta;
    if (tracer_ != nullptr) {
      gang_meta.name = StrFormat("gang%d", gid);
      gang_meta.category = "gang";
      gang_meta.job = ctx->job;
    }
    obs::ScopedSpan gang_span(tracer_, std::move(gang_meta));
    return arbiter_.AcquireGang(ctx->job, prefs);
  }();
  if (!gang.ok()) {
    return gang.status().WithContext(StrFormat(
        "gang-scheduling graphlet %d (%zu tasks); raise "
        "executors_per_machine", gid, members.size()));
  }
  ctx->sched.GraphletGranted(gid);
  for (std::size_t i = 0; i < members.size(); ++i) {
    ctx->placement[members[i]] = (*gang)[i];
  }

  // Stage waves, pass after pass, until the core ends the graphlet.
  // Intra-graphlet edges are pipeline edges; wave granularity is the
  // batch-level pipelining of the reproduction.
  using Kind = JobScheduler::Step::Kind;
  Status st;
  bool done = false;
  for (bool running = true; running && st.ok();) {
    Result<JobScheduler::Step> step = ctx->sched.NextStep();
    if (!step.ok()) {
      st = step.status();
    } else if (step->kind == Kind::kWave) {
      st = RunStageWave(ctx, step->stage, step->tasks);
    } else if (step->kind != Kind::kContinue) {
      done = step->kind == Kind::kDone;  // else suspended
      running = false;
    } else if (arbiter_.ShouldYield(ctx->job)) {
      // Cooperative preemption: the arbiter may ask this job to hand its
      // gang back at a wave boundary so a higher-class job can run. The
      // core requeues the graphlet, the same "suspended -> re-queue" path
      // recovery already exercises.
      ctx->sched.Yield();
      obs::Add(metrics_.gang_yields, 1);
      running = false;
    }
  }
  arbiter_.ReleaseGang(ctx->job, *gang);
  if (!done) return st;
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

Status LocalRuntime::RunStageWave(JobContext* ctx, StageId stage,
                                  const std::vector<int>& tasks) {
  std::vector<TaskRun> runs(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskRef task{stage, tasks[i]};
    ctx->sched.TaskStarted(task);
    runs[i].task = task;
    runs[i].attempt = ctx->sched.attempts(task);
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
    for (TaskRun& r : runs) {
      TaskRun* run = &r;
      run->machine = ResolveMachine(ctx, run->task);
      obs::Add(metrics_.tasks_started);
      const auto enqueued = std::chrono::steady_clock::now();
      const bool submitted = pool_->Submit([this, ctx, run, enqueued, &wg] {
        if (metrics_.queue_wait != nullptr) {
          const double wait_s =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            enqueued)
                  .count();
          obs::Record(metrics_.queue_wait, wait_s);
          obs::Set(metrics_.queue_wait_last, wait_s);
        }
        run->status = RunTask(ctx, run);
        wg.Done();
      });
      if (!submitted) {
        run->status = Status::Internal("executor pool shut down mid-wave");
        wg.Done();
      }
    }
    wg.Wait();
  }

  for (const TaskRun& r : runs) {
    // Book the task's reads and outcome before any failure is handled,
    // so recovery sees who holds whose output. Count every outcome up
    // front so started == completed + failed holds even when failure
    // handling aborts the job mid-wave.
    for (const TaskRef& producer : r.consumed) {
      ctx->sched.OutputConsumed(producer, r.task);
    }
    obs::Add(r.status.ok() ? metrics_.tasks_completed : metrics_.tasks_failed);
    if (r.status.ok()) {
      ctx->sched.TaskFinished(r.task, r.machine);
      std::lock_guard<std::mutex> lock(ctx->mu);
      ctx->stats.tasks_executed += 1;
    }
  }
  // One heartbeat interval elapses per wave; detection of silent
  // machines (and probation expirations) runs here, between waves.
  SWIFT_RETURN_NOT_OK(TickClusterHealth(ctx));
  for (const TaskRun& r : runs) {
    if (!r.status.ok()) {
      {
        std::lock_guard<std::mutex> lock(ctx->mu);
        ctx->stats.tasks_executed += 1;
      }
      SWIFT_RETURN_NOT_OK(
          HandleFailure(ctx, r.task, FailureKindOf(r.status), r.status));
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
  }
  const bool readable = ctx->sched.state(task) == TaskState::kCompleted &&
                        OutputsAvailable(ctx, task);
  SWIFT_ASSIGN_OR_RETURN(JobScheduler::Recovery recovery,
                         ctx->sched.TaskFailed(task, kind, error, readable));
  if (!recovery.acted) return Status::OK();
  const RecoveryDecision& decision = recovery.decision;
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
    ctx->stats.job_restart_equivalent_tasks += recovery.restart_equivalent;
    obs::Add(metrics_.recoveries);
    obs::Add(metrics_.recovery_by_case[static_cast<int>(decision.kase)]);
    obs::Add(metrics_.resend_notifications,
             static_cast<int64_t>(decision.resend_upstream.size()));
    obs::Add(metrics_.tasks_rerun,
             static_cast<int64_t>(decision.rerun.size()));
    obs::Add(metrics_.restart_equivalent_tasks, recovery.restart_equivalent);
  }
  SWIFT_LOG(Info) << "recovered " << task.ToString() << " via "
                  << RecoveryCaseToString(decision.kase) << " (rerun "
                  << decision.rerun.size() << ", resend "
                  << decision.resend_upstream.size() << ")";
  if (decision.kase == RecoveryCase::kNone) return Status::OK();
  for (StageId s : decision.invalidate_outputs) {
    shuffle_->RemoveStageOutput(ctx->job, s);
  }
  // A machine loss can also take the rerun's *inputs*: re-run any
  // producer whose retained slot feeding `task` is gone (Fig. 7(a)).
  return EnsureInputsAvailable(ctx, task);
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
      if (ctx->sched.state(p) != TaskState::kCompleted) continue;
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
      if (DetectLocked(m)) lost.push_back(m);
    }
    // Probation: drained machines with a clean window rejoin.
    for (int m : health_.ClearExpired(clock_)) {
      restored.push_back(m);
      SWIFT_LOG(Info) << "machine " << m
                      << " back in rotation after clean probation";
    }
  }
  for (int m : restored) arbiter_.SetReadOnly(m, false);
  for (int m : lost) {
    SWIFT_RETURN_NOT_OK(HandleMachineLoss(ctx, m));
  }
  return Status::OK();
}

bool LocalRuntime::DetectLocked(int machine) {
  // Alive means not killed: every live machine beats each tick, so only
  // a killed one can be detected lost.
  auto it = down_.find(machine);
  SWIFT_CHECK(it != down_.end()) << "machine " << machine
                                 << " detected lost but never killed";
  if (!detected_.insert(machine).second) return false;
  obs::Record(metrics_.detection_delay, clock_ - it->second);
  return true;
}

Status LocalRuntime::DetectDownMachines(JobContext* ctx) {
  std::vector<int> lost;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [m, since] : down_) {
      if (DetectLocked(m)) lost.push_back(m);
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    KeepOneMachineSchedulableLocked(/*prefer=*/-1);
  }
  {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->stats.machine_failures += 1;
    obs::Add(metrics_.machine_failures);
  }
  // Completed tasks that ran there lost their retained outputs with the
  // Cache Worker; replan each unless a replica survives (Fig. 7).
  for (const TaskRef& t : ctx->sched.TasksFinishedOn(machine)) {
    if (ctx->sched.state(t) != TaskState::kCompleted) continue;
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
  // Drain read-only only while another machine still takes new tasks.
  if (KeepOneMachineSchedulableLocked(machine) == machine) return;
  arbiter_.SetReadOnly(machine, true);
  SWIFT_LOG(Info) << "machine " << machine
                  << " drained read-only after repeated task failures";
}

int LocalRuntime::KeepOneMachineSchedulableLocked(int prefer) {
  int rejoin = -1;
  for (int m = 0; m < config_.machines; ++m) {
    if (down_.count(m) > 0) continue;
    if (!health_.IsReadOnly(m)) return -1;  // one still takes tasks
    if (rejoin < 0) rejoin = m;
  }
  if (rejoin < 0) return -1;  // no live machine left
  if (prefer >= 0 && down_.count(prefer) == 0) rejoin = prefer;
  health_.Clear(rejoin);
  arbiter_.SetReadOnly(rejoin, false);
  SWIFT_LOG(Info) << "machine " << rejoin
                  << " in rotation: no other live machine takes tasks";
  return rejoin;
}

int LocalRuntime::ResolveMachine(JobContext* ctx, const TaskRef& task) {
  auto it = ctx->placement.find(task);
  int preferred = it != ctx->placement.end() ? it->second.machine : 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto alive = [this](int m) { return down_.count(m) == 0; };
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
                                                TaskRun* run) {
  const TaskRef& task = run->task;
  const JobDag& dag = ctx->plan->dag;
  std::vector<OperatorPtr> sources;
  if (!program.scan_table.empty()) {
    SWIFT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                           catalog_.Lookup(program.scan_table));
    // The slice streams out of the table's store as kDefaultMorselRows-row
    // morsels of just the columns the stage reads; the task slice is
    // never materialized whole.
    sources.push_back(MakeTableMorselSource(
        table, task.task, program.task_count, program.scan_schema,
        kDefaultMorselRows, program.scan_columns));
  } else {
    for (StageId src : program.inputs) {
      const StageProgram& producer = ctx->plan->program(src);
      const ShuffleKind kind =
          shuffle_->KindFor(dag.ShuffleEdgeSize(src, task.stage));
      std::vector<WirePayload> payloads;
      for (int st = 0; st < producer.task_count; ++st) {
        const TaskRef p{src, st};
        const ShuffleSlotKey key{ctx->job, src, st, task.stage, task.task};
        const int writer = ctx->sched.machine(p);
        if (writer < 0) {
          return Status::Internal(StrFormat(
              "no recorded writer machine for %s", p.ToString().c_str()));
        }
        SWIFT_ASSIGN_OR_RETURN(
            WirePayload payload,
            FetchShuffleInput(ctx, kind, key, run->machine, writer,
                              producer.output_schema));
        payloads.push_back(std::move(payload));
        // This task now holds the producer's output — the planner's
        // received_output set for any later failure of that producer.
        run->consumed.push_back(p);
      }
      // Validated payloads decode straight into morsels, so downstream
      // pipelines stay O(morsel)-resident here too.
      sources.push_back(MakeWireMorselSource(producer.output_schema,
                                             std::move(payloads),
                                             kDefaultMorselRows));
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

  // Intra-task morsel parallelism: the leading filter/project chain has
  // no pipeline breakers, so with more than one worker thread each lane
  // runs its own copy of the chain over independent morsels, merged back
  // in order — results stay byte-identical to serial execution. Breakers
  // (sort, aggregate, window, limit) and everything after them run on
  // the merged stream.
  std::size_t chain_end = first_op;
  if (first_op == 0) {
    while (chain_end < program.ops.size() &&
           (program.ops[chain_end].kind == LocalOpDesc::Kind::kFilter ||
            program.ops[chain_end].kind == LocalOpDesc::Kind::kProject)) {
      ++chain_end;
    }
  }
  if (chain_end > first_op) {
    // Called only while the segment opens, inside this task's run.
    MorselChain chain = [&program, first_op, chain_end](OperatorPtr in) {
      for (std::size_t i = first_op; i < chain_end; ++i) {
        // Filter and project always append.
        in = AppendOp(std::move(in), program.ops[i]).ValueOrDie();
      }
      return in;
    };
    if (config_.worker_threads > 1) {
      MorselObs mobs;
      mobs.metrics = config_.metrics;
      mobs.tracer = config_.tracer;
      tree = MakeParallelMorselPipeline(std::move(tree), std::move(chain),
                                        pool_.get(), config_.worker_threads,
                                        mobs);
    } else {
      tree = chain(std::move(tree));
    }
  }
  for (std::size_t i = chain_end; i < program.ops.size(); ++i) {
    SWIFT_ASSIGN_OR_RETURN(tree, AppendOp(std::move(tree), program.ops[i]));
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
  }
  obs::Add(metrics_.decompress_frames);
  obs::Add(metrics_.decompress_bytes, raw_len);
}

Result<WirePayload> LocalRuntime::FetchShuffleInput(JobContext* ctx,
                                                    ShuffleKind kind,
                                                    const ShuffleSlotKey& key,
                                                    int reader, int writer,
                                                    const Schema& schema) {
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
    Result<WirePayload> payload = WirePayload::Open(*buffer, &schema);
    if (payload.ok()) {
      NoteDecompressed(ctx, buffer->view());
      return payload;
    }
    if (refetch >= kMaxCorruptRereads) {
      return payload.status().WithContext(StrFormat(
          "payload %s rejected %d times", key.ToString().c_str(),
          refetch + 1));
    }
    // Validation rejected the payload (a bit flip in flight, caught by
    // the CRC-32C footer): drop this copy and re-fetch from the shuffle
    // fabric.
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->stats.corrupt_read_retries += 1;
    obs::Add(metrics_.corrupt_read_retries);
  }
}

Status LocalRuntime::RunTask(JobContext* ctx, TaskRun* run) {
  const TaskRef& task = run->task;
  const int machine = run->machine;
  obs::Span task_meta;
  if (tracer_ != nullptr) {
    task_meta.name = task.ToString();
    task_meta.category = "task";
    task_meta.machine = machine;
    task_meta.stage = task.stage;
    task_meta.task = task.task;
    task_meta.attempt = run->attempt;
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
    const TaskFault fault = injector_->OnTaskStart(task, run->attempt);
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
  SWIFT_ASSIGN_OR_RETURN(OperatorPtr tree, BuildTaskTree(ctx, program, run));
  const StageId consumer = ctx->plan->ConsumerOf(task.stage);
  if (consumer >= 0) return WriteTaskOutput(ctx, task, machine, tree.get());
  SWIFT_ASSIGN_OR_RETURN(ColumnBatch out, CollectAllColumnar(tree.get()));
  SWIFT_RETURN_NOT_OK(CheckSurvivedRun(task, machine));
  std::lock_guard<std::mutex> lock(ctx->mu);
  ctx->final_result = ToRowBatch(out);
  ctx->has_result = true;
  return Status::OK();
}

Status LocalRuntime::CheckSurvivedRun(const TaskRef& task, int machine) {
  // A machine killed mid-run takes its in-flight task results along.
  std::lock_guard<std::mutex> lock(mu_);
  if (down_.count(machine) > 0) {
    return Status::MachineUnhealthy(StrFormat(
        "machine %d died while %s ran", machine, task.ToString().c_str()));
  }
  return Status::OK();
}

Status LocalRuntime::WriteTaskOutput(JobContext* ctx, const TaskRef& task,
                                     int machine, PhysicalOperator* tree) {
  const JobDag& dag = ctx->plan->dag;
  const StageProgram& program = ctx->plan->program(task.stage);
  const StageId consumer = ctx->plan->ConsumerOf(task.stage);
  const StageProgram& consumer_prog = ctx->plan->program(consumer);
  const int ndst = consumer_prog.task_count;
  SWIFT_RETURN_NOT_OK(tree->Open());
  const Schema& schema = tree->output_schema();
  SWIFT_ASSIGN_OR_RETURN(
      HashPartitioner partitioner,
      HashPartitioner::Make(schema, program.output_partition_keys, ndst));
  // The sink: every output morsel is held with its rows routed per
  // consumer task (all to consumer 0 when the stage has no partition
  // keys); no batch of the whole output is ever built. A morsel whose
  // selection keeps under half its rows is compacted first, so what is
  // held stays within twice the rows that ship.
  std::vector<ColumnBatch> morsels;
  std::vector<PartitionedRows> routes;
  for (;;) {
    SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> m, tree->Next());
    if (!m.has_value()) break;
    if (m->num_rows() == 0) continue;
    if (m->selection && 2 * m->selection->size() < m->physical_rows) {
      m->Flatten();
    }
    routes.emplace_back();
    SWIFT_RETURN_NOT_OK(partitioner.Route(*m, &routes.back()));
    morsels.push_back(std::move(*m));
  }
  SWIFT_RETURN_NOT_OK(CheckSurvivedRun(task, machine));

  const ShuffleKind kind =
      shuffle_->KindFor(dag.ShuffleEdgeSize(task.stage, consumer));
  const bool pipelined =
      dag.EdgeKindOf(task.stage, consumer) == EdgeKind::kPipeline;
  std::vector<WirePiece> pieces;
  for (int dst = 0; dst < ndst; ++dst) {
    // Each consumer's payload gathers its rows straight out of the held
    // morsels.
    pieces.clear();
    for (std::size_t k = 0; k < morsels.size(); ++k) {
      const PartitionedRows& r = routes[k];
      const uint32_t begin = r.starts[static_cast<std::size_t>(dst)];
      const uint32_t end = r.starts[static_cast<std::size_t>(dst) + 1];
      if (end > begin) {
        pieces.push_back(
            WirePiece{&morsels[k], r.rows.data() + begin, end - begin});
      }
    }
    ShuffleSlotKey key{ctx->job, task.stage, task.task, consumer, dst};
    // One allocation per partition: the shuffle plane (direct slot,
    // workers, retained recovery slots, re-sends) shares this buffer.
    SWIFT_RETURN_NOT_OK(shuffle_->WritePartition(
        kind, key, ShuffleBuffer(SerializePieces(schema, pieces)), machine,
        pipelined));
  }
  return Status::OK();
}

}  // namespace swift
