#ifndef SWIFT_RUNTIME_LOCAL_RUNTIME_H_
#define SWIFT_RUNTIME_LOCAL_RUNTIME_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/column_batch.h"
#include "exec/operators.h"
#include "exec/serde.h"
#include "exec/table.h"
#include "fault/failure.h"
#include "fault/fault_injector.h"
#include "fault/heartbeat.h"
#include "fault/recovery.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "partition/partitioners.h"
#include "scheduler/gang_arbiter.h"
#include "scheduler/resource_pool.h"
#include "shuffle/shuffle_service.h"
#include "sql/distributed_plan.h"
#include "sql/planner.h"

namespace swift {

/// \brief Configuration of the in-process Swift cluster.
struct LocalRuntimeConfig {
  int machines = 4;
  /// Pre-launched logical executors per machine ("dozens or hundreds of
  /// Swift Executors running on each machine", Fig. 2 caption).
  int executors_per_machine = 64;
  /// OS threads actually executing tasks.
  int worker_threads = 8;
  int64_t cache_memory_per_worker = 256LL << 20;
  std::string spill_root;  ///< "" = no spill
  std::optional<ShuffleKind> force_shuffle_kind;
  /// Cap on live spill-file bytes per Cache Worker (0 = unbounded); a
  /// full spill disk degrades to backpressure instead of failing jobs.
  int64_t spill_disk_budget_bytes = 0;
  /// Backpressured writes block up to shuffle_put_wait_ms and retry up
  /// to shuffle_put_retry_budget times before forcing admission (the
  /// deadlock guard for writers that are their job's only drainer).
  int shuffle_put_retry_budget = 64;
  double shuffle_put_wait_ms = 2.0;
  /// Compressed shuffle plane (DESIGN.md Sec. 17). Barrier edges
  /// (Remote, and Local when not pipelined) of at least 4 KiB ship as
  /// CRC-framed SWZ1 frames when that shrinks them; readers auto-detect
  /// the frame magic, so the knob is writer-side only. Spill files
  /// compress under the same rule and charge the disk budget at stored
  /// (compressed) size.
  bool shuffle_compression = true;
  /// Write-side replica fan-out for worker-held partitions: each write
  /// also lands on the replica_fanout - 1 least-loaded other live
  /// workers, so single-machine failure costs no shuffle data. 1 = off
  /// (paper-exact byte/connection accounting).
  int shuffle_replica_fanout = 1;
  int max_task_attempts = 3;
  /// Read-only drain (Sec. IV-A): this many non-application failures on
  /// one machine within a 60 s window stop new placements there; after
  /// 120 s without further failures the machine returns to rotation.
  int health_failure_threshold = 3;
  /// Seeded chaos engine driving injected faults (nullopt = none).
  std::optional<FaultSchedule> fault_schedule;
  /// Fair share of the one executor pool every job gangs from
  /// (DESIGN.md Sec. 16): per-tenant weights and the priority boost the
  /// runtime's GangArbiter orders gang requests by, and that the job
  /// service's admission queue orders pending jobs by.
  FairShareConfig fair_share;
  /// Optional observability sinks (not owned). The registry feeds the
  /// metric catalog of DESIGN.md Sec. 11 (task/recovery counters,
  /// detection-delay histogram, scheduler gauges, shuffle byte
  /// conservation); the tracer records graphlet ⊃ wave ⊃ task spans.
  /// Both null by default: instrumentation then costs one pointer test.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* tracer = nullptr;
};

/// \brief Outcome counters of one job run.
struct JobRunStats {
  /// Runtime-assigned job id (keys shuffle slots and per-job quotas).
  JobId job_id = 0;
  int graphlets = 0;
  int tasks_executed = 0;   ///< task executions incl. re-runs
  int tasks_rerun = 0;      ///< re-executions triggered by recovery
  int recoveries = 0;       ///< recovery decisions acted on
  int resend_notifications = 0;  ///< upstream re-send requests issued
  int machine_failures = 0;      ///< machine losses detected and handled
  /// Shuffle payloads re-fetched after the CRC-32C footer rejected them.
  int corrupt_read_retries = 0;
  /// Compressed shuffle frames decoded on the read side.
  int decompressed_frames = 0;
  /// Recovery decisions by Sec. IV-B scenario.
  std::map<RecoveryCase, int> recoveries_by_case;
  /// What the job-restart baseline would have re-executed instead: the
  /// count of already-finished tasks summed over every recovery.
  int64_t job_restart_equivalent_tasks = 0;
  ShuffleServiceStats shuffle;
};

/// \brief Result rows plus run statistics.
struct JobRunReport {
  Batch result;
  JobRunStats stats;
};

/// \brief An in-process Swift deployment: N simulated machines with
/// pre-launched executors and Cache Workers, executing DistributedPlans
/// with graphlet gang scheduling, adaptive in-network shuffle, and
/// fine-grained failure recovery. This is the substrate the examples and
/// integration tests run real queries on.
class LocalRuntime {
 public:
  explicit LocalRuntime(LocalRuntimeConfig config = {});

  /// \brief The table registry jobs read from.
  Catalog* catalog() { return &catalog_; }

  /// \brief Parse, plan and run a SQL query; returns the result batch.
  Result<Batch> ExecuteSql(const std::string& sql,
                           const PlannerConfig& planner_config = {});

  /// \brief Plan and run with full statistics.
  Result<JobRunReport> RunSql(const std::string& sql,
                              const PlannerConfig& planner_config = {});

  /// \brief Runs an already-planned job.
  Result<JobRunReport> RunPlan(const DistributedPlan& plan);

  /// \brief Runs an already-planned job on behalf of a tenant: the
  /// options flow into gang arbitration (fair share, priority class)
  /// and into the job-level trace span. RunPlan is safe to call from
  /// multiple threads concurrently — jobs share the shuffle fabric,
  /// worker threads, and the executor pool (one GangArbiter), while all
  /// per-job state lives in the JobContext.
  Result<JobRunReport> RunPlan(const DistributedPlan& plan,
                               const JobRunOptions& opts);

  /// \brief Makes the next execution of `task` fail with `kind`
  /// (fires once; recovery then re-runs it successfully).
  void InjectFailureOnce(const TaskRef& task, FailureKind kind);

  /// \brief Kills machine `machine` mid-flight: its Cache Worker state
  /// and retained partitions are lost, its heartbeats stop, its
  /// executors leave the gang pool at once, and tasks placed there fail.
  /// Detection runs through the HeartbeatMonitor (or eagerly, when a
  /// reader trips over the missing data); recovery then replans through
  /// the surviving machines.
  void FailMachine(int machine);

  /// \brief Brings `machine` back with a fresh, empty Cache Worker.
  void RestoreMachine(int machine);

  /// \brief Machines currently down (killed and not yet restored).
  std::vector<int> DownMachines();

  ShuffleService* shuffle_service() { return shuffle_.get(); }
  FaultInjector* fault_injector() { return injector_.get(); }
  MachineHealthMonitor* health_monitor() { return &health_; }
  /// \brief The one gang arbiter over the cluster's executor pool.
  GangArbiter* arbiter() { return &arbiter_; }

 private:
  struct JobContext;
  /// One task of a wave: the driver fills in where and which attempt it
  /// runs, the task its outcome and the producers it read.
  struct TaskRun {
    TaskRef task;
    int machine = 0;
    int attempt = 0;
    Status status;
    std::vector<TaskRef> consumed;
  };

  Status RunGraphlet(JobContext* ctx, GraphletId gid);
  Status RunStageWave(JobContext* ctx, StageId stage,
                      const std::vector<int>& tasks);
  Status RunTask(JobContext* ctx, TaskRun* run);
  Status HandleFailure(JobContext* ctx, const TaskRef& task,
                       FailureKind kind, const Status& error);
  Result<OperatorPtr> BuildTaskTree(JobContext* ctx,
                                    const StageProgram& program,
                                    TaskRun* run);
  /// Books a successfully decoded compressed frame into the job stats
  /// and the shuffle.decompress.* counters (no-op for raw payloads).
  void NoteDecompressed(JobContext* ctx, std::string_view wire);
  /// Reads one shuffle payload and validates it in full against the
  /// producer stage's `schema` (WirePayload::Open) before any row is
  /// decoded. A missing slot (NotFound) maps to MachineUnhealthy so
  /// recovery re-runs the producer; a payload validation rejects (CRC-32C
  /// footer, header, a schema other than `schema`, bounds) is re-fetched
  /// up to kMaxCorruptRereads times.
  Result<WirePayload> FetchShuffleInput(JobContext* ctx, ShuffleKind kind,
                                        const ShuffleSlotKey& key, int reader,
                                        int writer, const Schema& schema);
  /// MachineUnhealthy when `machine` died while `task` ran on it: its
  /// in-flight results die with it. Checked after the tree finishes,
  /// before any result is published.
  Status CheckSurvivedRun(const TaskRef& task, int machine);
  /// Runs a non-final task's tree and writes one payload per consumer
  /// task, encoded straight from the retained output morsels.
  Status WriteTaskOutput(JobContext* ctx, const TaskRef& task, int machine,
                         PhysicalOperator* tree);
  /// Advance the logical cluster clock one heartbeat interval, run
  /// detection, and handle newly detected machine losses and probation
  /// expirations. Called between stage waves.
  Status TickClusterHealth(JobContext* ctx);
  /// A machine loss was detected: keep one machine schedulable and
  /// replan recovery for every completed task whose retained output died
  /// with it.
  Status HandleMachineLoss(JobContext* ctx, int machine);
  /// Eager detection: machine-flavored failures surface losses before
  /// the heartbeat deadline (the failed-RPC path of Sec. IV-A).
  Status DetectDownMachines(JobContext* ctx);
  /// All retained output slots of completed task `task` still readable?
  bool OutputsAvailable(JobContext* ctx, const TaskRef& task);
  /// Re-run producers whose retained slots feeding `task` are gone.
  Status EnsureInputsAvailable(JobContext* ctx, const TaskRef& task);
  /// Pick the machine `task` runs on, avoiding dead/drained machines.
  int ResolveMachine(JobContext* ctx, const TaskRef& task);
  /// Record a non-application failure against `machine`; drains it
  /// read-only when the sliding window fills (never the last machine).
  void RecordMachineFailure(int machine);
  /// The last-machine rule, for drain and loss alike: when no live
  /// machine is left undrained, `prefer` (if live, else the lowest-id
  /// live machine) rejoins rotation, or every later gang request would
  /// strand. Returns the machine that rejoined, or -1 (requires mu_).
  int KeepOneMachineSchedulableLocked(int prefer);
  /// Marks killed `machine` detected; on the first detection feeds the
  /// fault.detection_delay_s histogram and returns true (requires mu_).
  bool DetectLocked(int machine);

  LocalRuntimeConfig config_;
  Catalog catalog_;
  std::unique_ptr<ShuffleService> shuffle_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<FaultInjector> injector_;
  HeartbeatMonitor heartbeat_;
  MachineHealthMonitor health_;
  GangArbiter arbiter_;
  std::mutex mu_;
  /// One-shot fault injections. An injection is claimed by the next job
  /// to enter RunPlan and fires only within that job; the job clears its
  /// claimed injections (consumed or not) when it ends. Serially that is
  /// exactly the old "cleared at end of RunPlan" behavior; concurrently
  /// it stops one job's end from wiping another job's pending injection
  /// (single-job assumption fixed for the multi-tenant service).
  struct PendingInjection {
    FailureKind kind = FailureKind::kProcessCrash;
    JobId claimed_by = 0;  ///< 0 = unclaimed
  };
  std::map<TaskRef, PendingInjection> injected_;
  /// Jobs currently inside RunPlan; scales the logical heartbeat clock
  /// so cluster time advances ~one interval per concurrent wave *round*
  /// instead of one per wave of every job (which would shrink detection
  /// windows and probation under concurrency).
  int active_jobs_ = 0;
  /// Machines killed and not yet restored (heartbeats silent) -> clock_
  /// at the kill, which the detection delay is measured from.
  std::map<int, double> down_;
  /// The admin's "already handled" set: down machines whose loss was
  /// detected and recovered from (always a subset of down_'s keys).
  std::set<int> detected_;
  double clock_ = 0.0;      ///< logical cluster time, one tick per wave
  JobId next_job_id_ = 1;
  obs::TraceRecorder* tracer_ = nullptr;  // == config_.tracer

  // Cached registry handles (nullptr when Config::metrics is null).
  struct Instruments {
    obs::Counter* tasks_started = nullptr;
    obs::Counter* tasks_completed = nullptr;
    obs::Counter* tasks_failed = nullptr;
    obs::Counter* tasks_rerun = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* recovery_by_case[6] = {};  // indexed by RecoveryCase
    obs::Counter* resend_notifications = nullptr;
    obs::Counter* restart_equivalent_tasks = nullptr;
    obs::Counter* machine_failures = nullptr;
    obs::Counter* corrupt_read_retries = nullptr;
    obs::Counter* decompress_frames = nullptr;
    obs::Counter* decompress_bytes = nullptr;  // decoded (raw) bytes
    obs::Counter* heartbeat_misses = nullptr;
    obs::HistogramMetric* detection_delay = nullptr;
    obs::HistogramMetric* queue_wait = nullptr;
    obs::Gauge* queue_wait_last = nullptr;
    obs::Gauge* executor_idle_ratio = nullptr;
    obs::Series* graphlet_idle_ratio = nullptr;
    obs::Counter* gang_yields = nullptr;
  } metrics_;
};

}  // namespace swift

#endif  // SWIFT_RUNTIME_LOCAL_RUNTIME_H_
