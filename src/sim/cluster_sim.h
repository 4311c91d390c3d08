#ifndef SWIFT_SIM_CLUSTER_SIM_H_
#define SWIFT_SIM_CLUSTER_SIM_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "fault/recovery.h"
#include "obs/metrics.h"
#include "partition/partitioners.h"
#include "scheduler/gang_arbiter.h"
#include "scheduler/job_scheduler.h"
#include "sim/event_engine.h"
#include "sim/models.h"
#include "sim/sim_job.h"

namespace swift {

/// \brief How jobs are cut into gang-scheduled units.
enum class SchedulingPolicy : int {
  kSwiftGraphlet = 0,  ///< shuffle-mode-aware graphlets (this paper)
  kWholeJob = 1,       ///< JetScope/Impala-style whole-job gang
  kPerStage = 2,       ///< Spark-style stage-at-a-time
  kDataSizeBubble = 3, ///< Bubble-Execution-style data-size bubbles
};

/// \brief Where shuffle data travels.
enum class ShuffleMedium : int {
  kMemoryAdaptive = 0,   ///< Swift: Direct/Local/Remote by edge size
  kMemoryForcedKind = 1, ///< one fixed in-memory scheme (Fig. 12)
  kDisk = 2,             ///< file-based shuffle (Spark / Bubble)
};

/// \brief Full simulator configuration; baselines/ provides presets.
struct SimConfig {
  int machines = 100;
  int executors_per_machine = 40;
  SchedulingPolicy policy = SchedulingPolicy::kSwiftGraphlet;
  ShuffleMedium medium = ShuffleMedium::kMemoryAdaptive;
  ShuffleKind forced_kind = ShuffleKind::kDirect;
  /// Cold task launch (package download + executor start) instead of
  /// pre-launched executors.
  bool cold_launch = false;
  /// Bubble partitioner budget (bytes) and its extra planning cost.
  double bubble_data_budget = 2.0e9;
  double bubble_partition_overhead = 0.3;
  /// How widely a stage's tasks spread over machines: a stage of T
  /// tasks lands on min(machines, multiplier * ceil(T / executors)).
  /// Multi-tenant clusters pack (default 4x the minimal footprint); set
  /// very large for a dedicated single-job cluster (tasks spread over
  /// every machine, as in the paper's TPC-H / Terasort runs).
  double machine_spread_multiplier = 4.0;
  /// Fine-grained recovery (Sec. IV-B) vs whole-job restart.
  bool fine_grained_recovery = true;
  double process_crash_detect = 0.5;
  /// Cost of re-running ONE task relative to its stage's wall time.
  /// Stage walls include stragglers and waves, so a single re-run is
  /// considerably cheaper than the stage (calibrated to Fig. 14/15).
  double rerun_cost_fraction = 0.35;
  int heartbeat_miss_threshold = 2;
  /// A failed machine is revoked from the pool (every executor on it,
  /// busy or free) for this long before repair returns it (read-only
  /// drain + re-provision).
  double machine_repair_seconds = 300.0;
  NetworkModel net;
  DiskModel disk;
  TaskModel task;
  /// Compressed shuffle plane (off by default; see models.h). When
  /// enabled, qualifying Local/Remote edges move WireBytes over the
  /// fabric and add codec CPU to both shuffle phases.
  CompressionModel compress;
  double sample_interval = 1.0;
  uint64_t seed = 42;
  /// Optional metrics sink (not owned): per-job latency / idle-ratio
  /// series plus completion counters, published as jobs finish.
  obs::MetricsRegistry* metrics = nullptr;
};

/// \brief Discrete-event simulation of a Swift-style cluster running a
/// set of DAG jobs under a scheduling policy and shuffle medium. The
/// substitution substrate for the paper's 100/2,000-node clusters; see
/// DESIGN.md.
///
/// Admission is the runtime's own: one GangArbiter over machines x
/// executors_per_machine. Each job runs as tenant "default" at priority
/// 0 (so service is FIFO and preemption never fires) and queues one
/// gang request per ready scheduling unit; after every event the sim
/// grants fairness heads until the head does not fit.
class ClusterSim {
 public:
  explicit ClusterSim(SimConfig config);

  /// \brief Queues a job for the run; must be called before Run().
  Status SubmitJob(SimJobSpec spec);

  /// \brief Runs to completion and returns the report.
  Result<SimReport> Run();

  const SimConfig& config() const { return config_; }

 private:
  struct StageTiming {
    double launch_done = 0.0;
    double data_ready = 0.0;
    double start = 0.0;
    double finish = 0.0;
    StagePhases phases;
  };

  struct UnitRun {
    int job = -1;
    GraphletId gid = -1;
    double alloc_time = 0.0;
    /// One executor per task: member stages in ascending id order, each
    /// stage's tasks in index order.
    std::vector<ExecutorId> gang;
    double finish = 0.0;
    std::map<StageId, StageTiming> stages;
    EventEngine::EventId finish_event = -1;
  };

  struct JobState {
    SimJobSpec spec;
    GraphletPlan plan;
    /// The job's state machine, driven per graphlet: which units are
    /// ready, queued, running or done.
    std::unique_ptr<JobScheduler> sched;
    std::map<GraphletId, GangArbiter::Ticket> queued_units;
    std::map<GraphletId, UnitRun> running_units;
    std::map<StageId, double> stage_finish;  // completed stages
    std::map<StageId, double> stage_start;
    /// Machine of task 0 of every stage placed so far (kept after the
    /// unit finishes: its retained output lives there).
    std::map<StageId, int> stage_machine;
    SimJobResult result;
    double extra_delay = 0.0;  // recovery debt applied at next launch
    bool failures_scheduled = false;
  };

  // --- scheduling -----------------------------------------------------
  void EnqueueReadyUnits(int job);
  /// Grants fairness heads until the head does not fit. Called once at
  /// the end of every event; nothing it calls schedules again.
  void Schedule();
  void StartUnit(int job, GraphletId gid, std::vector<ExecutorId> gang);
  /// Cancels the job's running units and returns their gangs, and
  /// withdraws its queued gang requests (GangArbiter::EndJob).
  void LeaveScheduling(int job, bool count_as_rerun);
  void FinishUnit(int job, GraphletId gid);
  void ComputeUnitSchedule(JobState* js, UnitRun* unit);
  void CompleteJob(int job, bool aborted);

  // --- cost helpers ---------------------------------------------------
  ShuffleKind EdgeShuffleKind(const JobDag& dag, StageId src,
                              StageId dst) const;
  double EdgeBytes(const JobDag& dag, StageId src) const;
  int64_t SpreadMachines(int64_t m, int64_t n) const;
  bool EdgeUsesDisk(const Graphlet* unit, StageId src, StageId dst) const;
  double ShuffleWriteCost(const JobDag& dag, StageId src,
                          const Graphlet* unit, StagePhases* ph) const;
  double ShuffleReadCost(const JobDag& dag, StageId src, StageId dst,
                         const Graphlet* unit, StagePhases* ph) const;
  double LaunchCost();

  // --- failures -------------------------------------------------------
  void ScheduleFailures(int job);
  void OnFailure(int job, const FailureInjection& f);
  void FailMachine(const JobState& js, StageId stage);
  double DetectionDelay(FailureKind kind) const;

  // --- accounting -----------------------------------------------------
  void RecordBusyInterval(double start, double finish, int tasks);

  SimConfig config_;
  EventEngine engine_;
  Rng rng_;
  std::unique_ptr<Partitioner> partitioner_;
  /// Deque: growth must not relocate JobStates, whose RecoveryPlanners
  /// point into their own spec/plan members.
  std::deque<JobState> jobs_;
  GangArbiter arbiter_;
  std::vector<std::pair<double, int>> busy_deltas_;
  bool ran_ = false;
};

}  // namespace swift

#endif  // SWIFT_SIM_CLUSTER_SIM_H_
