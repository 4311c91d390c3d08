#include "sim/cluster_sim.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "fault/heartbeat.h"

namespace swift {

namespace {

std::unique_ptr<Partitioner> MakePartitioner(const SimConfig& config) {
  switch (config.policy) {
    case SchedulingPolicy::kSwiftGraphlet:
      return std::make_unique<ShuffleModeAwarePartitioner>();
    case SchedulingPolicy::kWholeJob:
      return std::make_unique<WholeJobPartitioner>();
    case SchedulingPolicy::kPerStage:
      return std::make_unique<PerStagePartitioner>();
    case SchedulingPolicy::kDataSizeBubble:
      return std::make_unique<DataSizePartitioner>(config.bubble_data_budget);
  }
  return std::make_unique<ShuffleModeAwarePartitioner>();
}

}  // namespace

ClusterSim::ClusterSim(SimConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      partitioner_(MakePartitioner(config_)),
      arbiter_(GangArbiterConfig{
          .machines = config_.machines,
          .executors_per_machine = config_.executors_per_machine,
          .fair_share = FairShareConfig{},
          // The sim publishes its own sim.* metrics, not service.*.
          .metrics = nullptr}) {}

Status ClusterSim::SubmitJob(SimJobSpec spec) {
  if (ran_) return Status::Internal("SubmitJob after Run");
  JobState js;
  SWIFT_ASSIGN_OR_RETURN(js.plan, partitioner_->Partition(spec.dag));
  js.spec = std::move(spec);
  js.result.name = js.spec.name;
  js.result.submit_time = js.spec.submit_time;
  jobs_.push_back(std::move(js));
  JobState& stored = jobs_.back();
  // The sim costs recovery instead of resetting tasks, so the attempt
  // budget never binds.
  stored.sched = std::make_unique<JobScheduler>(&stored.spec.dag, &stored.plan,
                                                /*max_task_attempts=*/1);
  return Status::OK();
}

Result<SimReport> ClusterSim::Run() {
  if (ran_) return Status::Internal("Run called twice");
  ran_ = true;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const int job = static_cast<int>(j);
    engine_.ScheduleAt(jobs_[j].spec.submit_time, [this, job] {
      // Bubble Execution pays its data-size partitioning cost up front:
      // booked before the first grant, so a unit granted at submit
      // starts after it.
      if (config_.policy == SchedulingPolicy::kDataSizeBubble) {
        jobs_[static_cast<std::size_t>(job)].extra_delay +=
            config_.bubble_partition_overhead;
      }
      arbiter_.BeginJob(job, JobRunOptions{});
      EnqueueReadyUnits(job);
      Schedule();
    });
  }
  engine_.Run();

  SimReport report;
  report.events_processed = engine_.processed();
  for (JobState& js : jobs_) {
    report.total_tasks += js.result.tasks_run;
    report.total_reruns += js.result.tasks_rerun;
    report.makespan = std::max(report.makespan, js.result.finish_time);
    report.jobs.push_back(js.result);
  }
  // Integrate the busy-delta log into a sampled occupancy series.
  std::sort(busy_deltas_.begin(), busy_deltas_.end());
  std::size_t di = 0;
  int64_t running = 0;
  for (double t = 0.0; t <= report.makespan + config_.sample_interval;
       t += config_.sample_interval) {
    while (di < busy_deltas_.size() && busy_deltas_[di].first <= t) {
      running += busy_deltas_[di].second;
      ++di;
    }
    report.occupancy.push_back(OccupancySample{t, running});
  }
  return report;
}

void ClusterSim::EnqueueReadyUnits(int job) {
  JobState& js = jobs_[static_cast<std::size_t>(job)];
  if (js.result.completed || js.result.aborted) return;
  for (GraphletId gid : js.sched->ReadyGraphlets()) {
    // Simulated tasks carry no data placement: the pool spreads each
    // gang over the least-loaded machines.
    const Graphlet& g = js.plan.graphlets[static_cast<std::size_t>(gid)];
    Result<GangArbiter::Ticket> ticket = arbiter_.RequestGang(
        job, std::vector<LocalityPref>(
                 static_cast<std::size_t>(g.TotalTasks(js.spec.dag))));
    if (!ticket.ok()) {  // larger than every schedulable executor
      CompleteJob(job, /*aborted=*/true);
      return;
    }
    js.sched->GraphletQueued(gid);
    js.queued_units.emplace(gid, *ticket);
  }
}

void ClusterSim::Schedule() {
  while (std::optional<GangArbiter::Grant> grant = arbiter_.GrantHead()) {
    const int job = static_cast<int>(grant->job);
    JobState& js = jobs_[static_cast<std::size_t>(job)];
    auto it = std::find_if(
        js.queued_units.begin(), js.queued_units.end(),
        [&](const auto& queued) { return queued.second == grant->ticket; });
    SWIFT_CHECK(it != js.queued_units.end());
    const GraphletId gid = it->first;
    js.queued_units.erase(it);
    if (!grant->gang.ok()) {
      // The cluster shrank below the unit while it queued. The abort
      // only returns capacity, which the next head test sees.
      CompleteJob(job, /*aborted=*/true);
      continue;
    }
    StartUnit(job, gid, std::move(grant->gang).ValueOrDie());
  }
}

double ClusterSim::LaunchCost() {
  if (!config_.cold_launch) return config_.task.warm_launch;
  return rng_.Uniform(config_.task.cold_launch_min,
                      config_.task.cold_launch_max);
}

ShuffleKind ClusterSim::EdgeShuffleKind(const JobDag& dag, StageId src,
                                        StageId dst) const {
  if (config_.medium == ShuffleMedium::kMemoryForcedKind) {
    return config_.forced_kind;
  }
  return SelectShuffleKind(dag.ShuffleEdgeSize(src, dst));
}

double ClusterSim::EdgeBytes(const JobDag& dag, StageId src) const {
  const StageDef& s = dag.stage(src);
  return s.output_bytes_per_task * static_cast<double>(s.task_count);
}

int64_t ClusterSim::SpreadMachines(int64_t m, int64_t n) const {
  // In production many jobs share each machine, so a stage pair packs
  // onto roughly 4x its minimal machine footprint ("each machine can
  // run tens of Executors, Y is much smaller than M and N", Sec. III-B).
  const int64_t tasks = std::max<int64_t>(1, std::max(m, n));
  const int64_t minimal =
      (tasks + config_.executors_per_machine - 1) /
      config_.executors_per_machine;
  const double spread = config_.machine_spread_multiplier *
                        static_cast<double>(minimal);
  return std::clamp<int64_t>(
      static_cast<int64_t>(spread), 1,
      std::min<int64_t>(config_.machines, tasks));
}

bool ClusterSim::EdgeUsesDisk(const Graphlet* unit, StageId src,
                              StageId dst) const {
  if (config_.medium != ShuffleMedium::kDisk) return false;
  // Disk-shuffle systems dump data *between* scheduling units; edges
  // internal to a unit stream in memory (Bubble Execution dumps only
  // inter-bubble data, Sec. I / VI).
  return unit == nullptr || !unit->Contains(src) || !unit->Contains(dst);
}

double ClusterSim::ShuffleWriteCost(const JobDag& dag, StageId src,
                                    const Graphlet* unit,
                                    StagePhases* ph) const {
  double total = 0.0;
  const StageDef& s = dag.stage(src);
  for (StageId dst : dag.outputs(src)) {
    const double bytes = EdgeBytes(dag, src);
    const int64_t m = s.task_count;
    const int64_t n = dag.stage(dst).task_count;
    const int64_t y = SpreadMachines(m, n);
    if (EdgeUsesDisk(unit, src, dst)) {
      total += config_.disk.WriteTime(bytes, m * n, y);
    } else {
      const ShuffleKind kind = EdgeShuffleKind(dag, src, dst);
      const double parts = static_cast<double>(m) * static_cast<double>(n);
      const double wire = config_.compress.WireBytes(kind, bytes, parts);
      total += config_.net.ConnectionSetupTime(kind, m, n, y) +
               0.5 * config_.net.TransferTime(kind, wire, m, n, y) +
               config_.compress.CompressTime(kind, bytes, parts, y);
    }
  }
  if (ph != nullptr) ph->shuffle_write += total;
  return total;
}

double ClusterSim::ShuffleReadCost(const JobDag& dag, StageId src,
                                   StageId dst, const Graphlet* unit,
                                   StagePhases* ph) const {
  const StageDef& s = dag.stage(src);
  const double bytes = EdgeBytes(dag, src);
  const int64_t m = s.task_count;
  const int64_t n = dag.stage(dst).task_count;
  const int64_t y = SpreadMachines(m, n);
  double cost = 0.0;
  if (EdgeUsesDisk(unit, src, dst)) {
    cost = config_.disk.ReadTime(bytes, m * n, y) +
           bytes / (config_.net.bw_per_machine * static_cast<double>(y));
  } else {
    const ShuffleKind kind = EdgeShuffleKind(dag, src, dst);
    const double parts = static_cast<double>(m) * static_cast<double>(n);
    const double wire = config_.compress.WireBytes(kind, bytes, parts);
    cost = 0.5 * config_.net.TransferTime(kind, wire, m, n, y) +
           config_.compress.DecompressTime(kind, bytes, parts, y);
  }
  if (ph != nullptr) ph->shuffle_read += cost;
  return cost;
}

void ClusterSim::ComputeUnitSchedule(JobState* js, UnitRun* unit) {
  const JobDag& dag = js->spec.dag;
  const Graphlet& g =
      js->plan.graphlets[static_cast<std::size_t>(unit->gid)];
  const double t0 = unit->alloc_time;
  unit->stages.clear();
  double unit_finish = t0;

  for (StageId sid : dag.topological_order()) {
    if (!g.Contains(sid)) continue;
    const StageDef& stage = dag.stage(sid);
    StageTiming timing;
    timing.phases.stage = sid;
    timing.phases.stage_name = stage.name;
    const double launch = LaunchCost();
    timing.phases.launch = launch;
    timing.launch_done = t0 + launch;

    double barrier_ready = 0.0;
    double pipelined_ready = 0.0;
    double pipelined_finish_floor = 0.0;
    bool has_pipelined = false;
    for (StageId src : dag.inputs(sid)) {
      const bool same_unit = g.Contains(src);
      const bool pipelined =
          same_unit && dag.EdgeKindOf(src, sid) == EdgeKind::kPipeline;
      if (pipelined) {
        const StageTiming& pt = unit->stages.at(src);
        has_pipelined = true;
        // Streaming: the consumer starts as the producer starts
        // emitting; only the connection setup is on the critical path.
        const int64_t m = dag.stage(src).task_count;
        const int64_t n = stage.task_count;
        const int64_t y = SpreadMachines(m, n);
        // Internal pipeline edges always stream in memory.
        const double setup = config_.net.ConnectionSetupTime(
            EdgeShuffleKind(dag, src, sid), m, n, y);
        timing.phases.shuffle_read += setup;
        pipelined_ready = std::max(pipelined_ready, pt.start + 0.01 + setup);
        pipelined_finish_floor = std::max(pipelined_finish_floor, pt.finish);
      } else {
        double producer_finish;
        if (same_unit) {
          producer_finish = unit->stages.at(src).finish;
        } else {
          auto it = js->stage_finish.find(src);
          producer_finish = it == js->stage_finish.end() ? t0 : it->second;
        }
        const double read = ShuffleReadCost(dag, src, sid, &g, &timing.phases);
        barrier_ready = std::max(barrier_ready, producer_finish + read);
      }
    }

    const double proc = config_.task.ProcessTime(
        stage.input_bytes_per_task, stage.cpu_cost_factor);
    timing.phases.process = proc;
    double write = ShuffleWriteCost(dag, sid, &g, &timing.phases);
    // Sink stages persist the job's final output sequentially.
    const bool is_sink =
        std::find(stage.operators.begin(), stage.operators.end(),
                  OperatorKind::kAdhocSink) != stage.operators.end();
    if (is_sink && stage.output_bytes_per_task > 0) {
      const double sink_write = config_.disk.SinkWriteTime(
          stage.output_bytes_per_task * stage.task_count,
          SpreadMachines(stage.task_count, stage.task_count));
      write += sink_write;
      timing.phases.shuffle_write += sink_write;
    }
    const double own = proc + write;

    timing.data_ready =
        std::max({timing.launch_done, barrier_ready, pipelined_ready});
    timing.start = timing.data_ready;
    timing.finish = timing.start + own;
    if (has_pipelined) {
      // A streaming consumer cannot finish before its producers plus the
      // non-overlapped tail of its own work.
      timing.finish = std::max(
          timing.finish, pipelined_finish_floor +
                             (1.0 - config_.task.pipeline_overlap) * own);
    }
    unit_finish = std::max(unit_finish, timing.finish);
    unit->stages.emplace(sid, std::move(timing));
  }
  unit->finish = unit_finish;
}

void ClusterSim::StartUnit(int job, GraphletId gid,
                           std::vector<ExecutorId> gang) {
  JobState& js = jobs_[static_cast<std::size_t>(job)];
  js.sched->GraphletGranted(gid);
  UnitRun unit;
  unit.job = job;
  unit.gid = gid;
  unit.alloc_time = engine_.Now() + js.extra_delay;
  js.extra_delay = 0.0;
  unit.gang = std::move(gang);
  std::size_t offset = 0;
  for (StageId sid :
       js.plan.graphlets[static_cast<std::size_t>(gid)].stages) {
    if (offset < unit.gang.size()) {
      js.stage_machine[sid] = unit.gang[offset].machine;
    }
    offset += static_cast<std::size_t>(js.spec.dag.stage(sid).task_count);
  }
  if (js.result.first_alloc_time < 0) {
    js.result.first_alloc_time = unit.alloc_time;
    ScheduleFailures(job);
  }
  ComputeUnitSchedule(&js, &unit);
  unit.finish_event = engine_.ScheduleAt(
      unit.finish, [this, job, gid] { FinishUnit(job, gid); });
  js.running_units.emplace(gid, std::move(unit));
}

void ClusterSim::FinishUnit(int job, GraphletId gid) {
  JobState& js = jobs_[static_cast<std::size_t>(job)];
  auto it = js.running_units.find(gid);
  if (it == js.running_units.end()) return;
  UnitRun unit = std::move(it->second);
  js.running_units.erase(it);
  arbiter_.ReleaseGang(job, unit.gang);
  js.sched->GraphletFinished(gid);

  const JobDag& dag = js.spec.dag;
  for (auto& [sid, timing] : unit.stages) {
    js.stage_start[sid] = timing.start;
    js.stage_finish[sid] = timing.finish;
    const int tasks = dag.stage(sid).task_count;
    js.result.tasks_run += tasks;
    RecordBusyInterval(timing.start, timing.finish, tasks);
    const double busy = (timing.finish - timing.start) * tasks;
    const double idle =
        (std::max(0.0, timing.start - timing.launch_done) +
         std::max(0.0, unit.finish - timing.finish)) * tasks;
    js.result.busy_executor_seconds += busy;
    js.result.idle_executor_seconds += idle;
    const double span = timing.finish - timing.launch_done;
    if (span > 0) {
      js.result.mean_idle_ratio +=
          tasks * std::max(0.0, timing.start - timing.launch_done) / span;
    }
    js.result.phases.push_back(timing.phases);
  }

  if (js.sched->AllComplete()) {
    CompleteJob(job, /*aborted=*/false);
  } else {
    EnqueueReadyUnits(job);
  }
  Schedule();
}

void ClusterSim::LeaveScheduling(int job, bool count_as_rerun) {
  JobState& js = jobs_[static_cast<std::size_t>(job)];
  for (auto& [gid, unit] : js.running_units) {
    engine_.Cancel(unit.finish_event);
    arbiter_.ReleaseGang(unit.job, unit.gang);
    // Partial work on killed units is also wasted.
    if (count_as_rerun) {
      js.result.tasks_rerun += static_cast<int64_t>(unit.gang.size());
    }
  }
  js.running_units.clear();
  js.queued_units.clear();
  arbiter_.EndJob(job);
}

void ClusterSim::CompleteJob(int job, bool aborted) {
  JobState& js = jobs_[static_cast<std::size_t>(job)];
  if (js.result.completed || js.result.aborted) return;
  js.result.finish_time = engine_.Now();
  js.result.completed = !aborted;
  js.result.aborted = aborted;
  if (js.result.tasks_run > 0) {
    js.result.mean_idle_ratio /= static_cast<double>(js.result.tasks_run);
  }
  // Abandon anything still queued or running.
  LeaveScheduling(job, /*count_as_rerun=*/false);
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry* reg = config_.metrics;
    reg->counter(aborted ? "sim.jobs.aborted" : "sim.jobs.completed")->Add(1);
    reg->counter("sim.tasks.run")->Add(js.result.tasks_run);
    reg->counter("sim.tasks.rerun")->Add(js.result.tasks_rerun);
    reg->counter("sim.recoveries")->Add(js.result.recoveries);
    if (!aborted) {
      reg->series("sim.job.latency_s")->Record(js.result.Latency());
      reg->series("sim.job.idle_ratio")->Record(js.result.mean_idle_ratio);
    }
  }
}

void ClusterSim::ScheduleFailures(int job) {
  JobState& js = jobs_[static_cast<std::size_t>(job)];
  if (js.failures_scheduled) return;
  js.failures_scheduled = true;
  for (const FailureInjection& f : js.spec.failures) {
    engine_.ScheduleAt(js.result.first_alloc_time + f.time,
                       [this, job, f] {
                         OnFailure(job, f);
                         Schedule();
                       });
  }
}

double ClusterSim::DetectionDelay(FailureKind kind) const {
  switch (kind) {
    case FailureKind::kProcessCrash:
      // Executor self-reports its restart (Sec. IV-A first mechanism).
      return config_.process_crash_detect;
    case FailureKind::kMachineFailure:
    case FailureKind::kNetworkTimeout:
      return HeartbeatMonitor::IntervalForClusterSize(config_.machines) *
             static_cast<double>(config_.heartbeat_miss_threshold);
    case FailureKind::kApplicationError:
      return 0.0;
  }
  return 0.0;
}

void ClusterSim::OnFailure(int job, const FailureInjection& f) {
  JobState& js = jobs_[static_cast<std::size_t>(job)];
  if (js.result.completed || js.result.aborted) return;
  const double now = engine_.Now();
  const double detect = DetectionDelay(f.kind);

  if (f.kind == FailureKind::kApplicationError) {
    // Sec. IV-C: useless to retry; report and end the job.
    CompleteJob(job, /*aborted=*/true);
    return;
  }
  if (f.kind == FailureKind::kMachineFailure) FailMachine(js, f.stage);

  if (!config_.fine_grained_recovery) {
    // Whole-job restart baseline: throw away everything done so far.
    js.result.recoveries += 1;
    js.result.tasks_rerun += js.result.tasks_run;
    LeaveScheduling(job, /*count_as_rerun=*/true);
    arbiter_.BeginJob(job, JobRunOptions{});
    js.sched->Restart();
    js.stage_start.clear();
    js.stage_finish.clear();
    js.result.tasks_run = 0;
    js.extra_delay = detect;
    engine_.ScheduleAfter(detect, [this, job] {
      EnqueueReadyUnits(job);
      Schedule();
    });
    return;
  }

  // Fine-grained recovery (Sec. IV-B).
  RecoveryContext ctx;
  auto stage_wall = [&](StageId s) -> double {
    // Wall time of one task of stage s, from recorded or running timing.
    for (const auto& [gid, unit] : js.running_units) {
      auto it = unit.stages.find(s);
      if (it != unit.stages.end()) {
        return it->second.finish - it->second.start;
      }
    }
    auto fi = js.stage_finish.find(s);
    auto si = js.stage_start.find(s);
    if (fi != js.stage_finish.end() && si != js.stage_start.end()) {
      return fi->second - si->second;
    }
    return 0.0;
  };
  auto stage_finished_by_now = [&](StageId s) {
    auto fi = js.stage_finish.find(s);
    if (fi != js.stage_finish.end() && fi->second <= now) return true;
    for (const auto& [gid, unit] : js.running_units) {
      auto it = unit.stages.find(s);
      if (it != unit.stages.end() && it->second.finish <= now) return true;
    }
    return false;
  };
  const JobDag& dag = js.spec.dag;
  for (const StageDef& s : dag.stages()) {
    if (stage_finished_by_now(s.id)) {
      for (int t = 0; t < s.task_count; ++t) {
        ctx.executed.insert(TaskRef{s.id, t});
      }
    }
  }
  auto stage_started_by_now = [&](StageId s) {
    auto si = js.stage_start.find(s);
    if (si != js.stage_start.end() && si->second <= now) return true;
    for (const auto& [gid, unit] : js.running_units) {
      auto it = unit.stages.find(s);
      if (it != unit.stages.end() && it->second.start <= now) return true;
    }
    return false;
  };
  for (StageId out : dag.outputs(f.stage)) {
    // A consumer task has the producer's data once it has started (the
    // shuffle read happens at task start).
    if (stage_started_by_now(out)) {
      const StageDef& s = dag.stage(out);
      for (int t = 0; t < s.task_count; ++t) {
        ctx.received_output.insert(TaskRef{out, t});
      }
    }
  }
  ctx.failed_output_available = stage_finished_by_now(f.stage);

  RecoveryDecision decision =
      js.sched->recovery().Plan(TaskRef{f.stage, 0}, f.kind, ctx);
  if (decision.kase == RecoveryCase::kNone) return;  // no slowdown
  js.result.recoveries += 1;
  js.result.tasks_rerun += static_cast<int64_t>(decision.rerun.size());

  std::set<StageId> rerun_stages;
  for (const TaskRef& t : decision.rerun) rerun_stages.insert(t.stage);
  double rerun_time = 0.0;
  for (StageId s : rerun_stages) {
    rerun_time += stage_wall(s) * config_.rerun_cost_fraction;
  }
  const double delay_until = now + detect + rerun_time;

  // Prefer charging the delay to the unit that hosts the failed stage;
  // otherwise it lands on the next unit launch.
  for (auto& [gid, unit] : js.running_units) {
    if (unit.stages.count(f.stage) > 0) {
      if (delay_until > unit.finish) {
        const double delta = delay_until - unit.finish;
        for (auto& [sid, timing] : unit.stages) {
          if (timing.finish > now) timing.finish += delta;
        }
        unit.finish = delay_until;
        engine_.Cancel(unit.finish_event);
        const GraphletId g = gid;
        unit.finish_event = engine_.ScheduleAt(
            unit.finish, [this, job, g] { FinishUnit(job, g); });
      }
      return;
    }
  }
  js.extra_delay += detect + rerun_time;
}

void ClusterSim::FailMachine(const JobState& js, StageId stage) {
  // The failure hits task 0 of `stage` (as RecoveryPlanner is told), so
  // the machine lost is the one that holds or last held that task; a
  // stage not placed yet fails on its job's lowest placed stage's
  // machine. The Admin revokes every executor there (Sec. IV-A third
  // mechanism), busy or free, until repair.
  auto it = js.stage_machine.find(stage);
  if (it == js.stage_machine.end()) it = js.stage_machine.begin();
  if (it == js.stage_machine.end()) return;
  const int machine = it->second;
  if (!arbiter_.RevokeMachine(machine)) return;  // down; repair pending
  engine_.ScheduleAfter(config_.machine_repair_seconds, [this, machine] {
    arbiter_.RestoreMachine(machine);
    Schedule();
  });
}

void ClusterSim::RecordBusyInterval(double start, double finish, int tasks) {
  if (finish <= start || tasks <= 0) return;
  busy_deltas_.push_back({start, tasks});
  busy_deltas_.push_back({finish, -tasks});
}

}  // namespace swift
