#include "sim/cluster_sim.h"

#include <gtest/gtest.h>

#include "baselines/baseline_configs.h"
#include "dag/dag_builder.h"
#include "sim/event_engine.h"

namespace swift {
namespace {

using OK = OperatorKind;

TEST(EventEngineTest, FiresInTimeOrder) {
  EventEngine e;
  std::vector<int> order;
  e.ScheduleAt(5.0, [&] { order.push_back(2); });
  e.ScheduleAt(1.0, [&] { order.push_back(1); });
  e.ScheduleAt(9.0, [&] { order.push_back(3); });
  EXPECT_DOUBLE_EQ(e.Run(), 9.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventEngineTest, TiesFireInInsertionOrder) {
  EventEngine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventEngineTest, CancelPreventsFiring) {
  EventEngine e;
  bool fired = false;
  auto id = e.ScheduleAt(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.Cancel(id));
  EXPECT_FALSE(e.Cancel(id));  // already cancelled
  e.Run();
  EXPECT_FALSE(fired);
}

TEST(EventEngineTest, NestedSchedulingAndRunUntil) {
  EventEngine e;
  int count = 0;
  e.ScheduleAt(1.0, [&] {
    ++count;
    e.ScheduleAfter(2.0, [&] { ++count; });   // t=3
    e.ScheduleAfter(10.0, [&] { ++count; });  // t=11, beyond horizon
  });
  EXPECT_DOUBLE_EQ(e.Run(5.0), 5.0);
  EXPECT_EQ(count, 2);
}

TEST(EventEngineTest, PastEventsClampToNow) {
  EventEngine e;
  double fired_at = -1;
  e.ScheduleAt(5.0, [&] {
    e.ScheduleAt(1.0, [&] { fired_at = e.Now(); });  // in the past
  });
  e.Run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(NetworkModelTest, CongestionRampsLatencyAndRetrans) {
  NetworkModel net;
  EXPECT_DOUBLE_EQ(net.ConnLatency(100), net.base_conn_latency);
  EXPECT_DOUBLE_EQ(net.ConnLatency(1e7), net.congested_conn_latency);
  const double mid = net.ConnLatency(60000);
  EXPECT_GT(mid, net.base_conn_latency);
  EXPECT_LT(mid, net.congested_conn_latency);
  EXPECT_DOUBLE_EQ(net.RetransRate(ShuffleKind::kDirect, 100),
                   net.base_retrans);
  EXPECT_DOUBLE_EQ(net.RetransRate(ShuffleKind::kDirect, 1e7),
                   net.max_retrans);
  // Cache-Worker schemes stay at the floor regardless of scale.
  EXPECT_DOUBLE_EQ(net.RetransRate(ShuffleKind::kLocal, 1e7),
                   net.base_retrans);
}

TEST(NetworkModelTest, LargeShuffleOrderingMatchesPaper) {
  // 1500x1500 tasks on 100 machines: setup time direct >> remote > local.
  NetworkModel net;
  const double direct =
      net.ConnectionSetupTime(ShuffleKind::kDirect, 1500, 1500, 100);
  const double remote =
      net.ConnectionSetupTime(ShuffleKind::kRemote, 1500, 1500, 100);
  const double local =
      net.ConnectionSetupTime(ShuffleKind::kLocal, 1500, 1500, 100);
  EXPECT_GT(direct, remote);
  EXPECT_GT(remote, local);
  // "Dozens of seconds" for hundreds of successors under congestion.
  EXPECT_GT(direct, 20.0);
}

TEST(NetworkModelTest, SmallShuffleDirectIsCheapest) {
  NetworkModel net;
  const double bytes = 1e9;
  const double direct = net.TransferTime(ShuffleKind::kDirect, bytes, 20, 20, 4) +
                        net.ConnectionSetupTime(ShuffleKind::kDirect, 20, 20, 4);
  const double local = net.TransferTime(ShuffleKind::kLocal, bytes, 20, 20, 4) +
                       net.ConnectionSetupTime(ShuffleKind::kLocal, 20, 20, 4);
  EXPECT_LT(direct, local);  // extra copies dominate at small scale
}

TEST(DiskModelTest, DiskMuchSlowerThanMemory) {
  // Calibration check: a Q9-sized shuffle (~60 GB over 100 machines)
  // should cost roughly an order of magnitude more on disk (the paper
  // reports ~14x: 137.8 s disk write vs 9.61 s in-memory).
  DiskModel disk;
  NetworkModel net;
  const double bytes = 60e9;
  const double disk_t = disk.WriteTime(bytes, 220 * 403, 100);
  const double mem_t = net.TransferTime(ShuffleKind::kRemote, bytes, 220,
                                        403, 100);
  EXPECT_GT(disk_t / mem_t, 6.0);
  EXPECT_LT(disk_t / mem_t, 40.0);
}

SimJobSpec TwoStageJob(const std::string& name, int map_tasks,
                       int reduce_tasks, double mb_per_task,
                       bool barrier = true) {
  DagBuilder b(name);
  StageDef map;
  map.name = "map";
  map.task_count = map_tasks;
  map.operators = {OK::kTableScan,
                   barrier ? OK::kMergeSort : OK::kStreamLine,
                   OK::kShuffleWrite};
  map.input_bytes_per_task = mb_per_task * 1e6;
  map.output_bytes_per_task = mb_per_task * 1e6 * 0.5;
  StageId m = b.AddStage(map);
  StageDef red;
  red.name = "reduce";
  red.task_count = reduce_tasks;
  red.operators = {OK::kShuffleRead, OK::kMergeSort, OK::kAdhocSink};
  red.input_bytes_per_task =
      mb_per_task * 1e6 * 0.5 * map_tasks / reduce_tasks;
  red.output_bytes_per_task = 0;
  StageId r = b.AddStage(red);
  b.AddEdge(m, r);
  SimJobSpec job;
  job.name = name;
  job.dag = std::move(b.Build()).ValueOrDie();
  return job;
}

TEST(ClusterSimTest, SingleJobCompletes) {
  ClusterSim sim(MakeSwiftSimConfig(10, 8));
  ASSERT_TRUE(sim.SubmitJob(TwoStageJob("j", 16, 8, 300)).ok());
  auto report = sim.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->jobs.size(), 1u);
  const SimJobResult& r = report->jobs[0];
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.tasks_run, 24);
  EXPECT_GT(r.finish_time, 0.0);
  EXPECT_GE(r.first_alloc_time, 0.0);
  EXPECT_GT(r.busy_executor_seconds, 0.0);
  EXPECT_EQ(report->total_tasks, 24);
}

// Bubble Execution's planning overhead is paid before the first unit
// starts, even when that unit is granted the moment the job arrives: a
// one-stage job's latency grows by exactly the overhead.
TEST(ClusterSimTest, BubbleOverheadDelaysFirstUnit) {
  auto latency = [](double overhead) {
    SimConfig cfg = MakeBubbleSimConfig(10, 8);
    cfg.bubble_partition_overhead = overhead;
    ClusterSim sim(cfg);
    DagBuilder b("one");
    StageDef scan;
    scan.name = "scan";
    scan.task_count = 8;
    scan.operators = {OK::kTableScan, OK::kAdhocSink};
    scan.input_bytes_per_task = 100e6;
    scan.output_bytes_per_task = 0;
    b.AddStage(scan);
    SimJobSpec job;
    job.name = "one";
    job.dag = std::move(b.Build()).ValueOrDie();
    EXPECT_TRUE(sim.SubmitJob(std::move(job)).ok());
    auto report = sim.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->jobs[0].completed);
    return report->jobs[0].finish_time - report->jobs[0].submit_time;
  };
  const double base = latency(0.0);
  EXPECT_NEAR(latency(0.3) - base, 0.3, 1e-9);
  EXPECT_NEAR(latency(30.0) - base, 30.0, 1e-9);
}

TEST(ClusterSimTest, PhasesAreRecorded) {
  ClusterSim sim(MakeSwiftSimConfig(10, 8));
  ASSERT_TRUE(sim.SubmitJob(TwoStageJob("j", 16, 8, 300)).ok());
  auto report = sim.Run();
  ASSERT_TRUE(report.ok());
  const auto& phases = report->jobs[0].phases;
  ASSERT_EQ(phases.size(), 2u);
  for (const StagePhases& p : phases) {
    EXPECT_GT(p.launch, 0.0);
    EXPECT_GT(p.process, 0.0);
  }
}

TEST(ClusterSimTest, ColdLaunchSlowerThanWarm) {
  auto run = [&](bool cold) {
    SimConfig cfg = MakeSwiftSimConfig(10, 8);
    cfg.cold_launch = cold;
    ClusterSim sim(cfg);
    EXPECT_TRUE(sim.SubmitJob(TwoStageJob("j", 16, 8, 100)).ok());
    auto report = sim.Run();
    EXPECT_TRUE(report.ok());
    return report->jobs[0].Latency();
  };
  EXPECT_GT(run(true), run(false) + 5.0);
}

TEST(ClusterSimTest, DiskShuffleSlowerThanMemory) {
  auto run = [&](ShuffleMedium medium) {
    SimConfig cfg = MakeSwiftSimConfig(10, 8);
    cfg.medium = medium;
    ClusterSim sim(cfg);
    EXPECT_TRUE(sim.SubmitJob(TwoStageJob("j", 32, 16, 500)).ok());
    auto report = sim.Run();
    EXPECT_TRUE(report.ok());
    return report->jobs[0].Latency();
  };
  EXPECT_GT(run(ShuffleMedium::kDisk),
            1.5 * run(ShuffleMedium::kMemoryAdaptive));
}

TEST(ClusterSimTest, WholeJobGangHasHigherIdleRatio) {
  // A 3-stage barrier chain: whole-job gang parks the downstream
  // executors while upstream runs (the Fig. 3 effect).
  auto build = [&] {
    DagBuilder b("chain");
    for (int s = 0; s < 3; ++s) {
      StageDef def;
      def.name = "s" + std::to_string(s);
      def.task_count = 8;
      def.operators = {s == 0 ? OK::kTableScan : OK::kShuffleRead,
                       OK::kMergeSort,
                       s == 2 ? OK::kAdhocSink : OK::kShuffleWrite};
      def.input_bytes_per_task = 400e6;
      def.output_bytes_per_task = 200e6;
      b.AddStage(def);
    }
    b.AddEdge(0, 1).AddEdge(1, 2);
    SimJobSpec job;
    job.name = "chain";
    job.dag = std::move(b.Build()).ValueOrDie();
    return job;
  };
  auto run = [&](SchedulingPolicy policy) {
    SimConfig cfg = MakeSwiftSimConfig(10, 8);
    cfg.policy = policy;
    ClusterSim sim(cfg);
    EXPECT_TRUE(sim.SubmitJob(build()).ok());
    auto report = sim.Run();
    EXPECT_TRUE(report.ok());
    return report->jobs[0];
  };
  const SimJobResult gang = run(SchedulingPolicy::kWholeJob);
  const SimJobResult graphlet = run(SchedulingPolicy::kSwiftGraphlet);
  EXPECT_GT(gang.mean_idle_ratio, graphlet.mean_idle_ratio + 0.05);
  EXPECT_GT(gang.idle_executor_seconds, graphlet.idle_executor_seconds);
}

TEST(ClusterSimTest, FifoHeadOfLineBlocking) {
  // A huge job ahead of a tiny one delays it (JetScope-style waiting).
  SimConfig cfg = MakeJetScopeSimConfig(4, 8);  // 32 executors
  ClusterSim sim(cfg);
  ASSERT_TRUE(sim.SubmitJob(TwoStageJob("big", 24, 8, 2000)).ok());
  SimJobSpec tiny = TwoStageJob("tiny", 2, 1, 10);
  tiny.submit_time = 0.5;
  ASSERT_TRUE(sim.SubmitJob(tiny).ok());
  auto report = sim.Run();
  ASSERT_TRUE(report.ok());
  // The tiny job can only start after the big one releases resources.
  EXPECT_GT(report->jobs[1].first_alloc_time,
            report->jobs[0].first_alloc_time + 1.0);
}

TEST(ClusterSimTest, OversizedUnitAborts) {
  SimConfig cfg = MakeJetScopeSimConfig(2, 4);  // capacity 8
  ClusterSim sim(cfg);
  ASSERT_TRUE(sim.SubmitJob(TwoStageJob("big", 64, 64, 10)).ok());
  auto report = sim.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->jobs[0].aborted);
  // Swift graphlets of the same job fit unit-by-unit.
  ClusterSim sim2(MakeSwiftSimConfig(2, 4));
  SimJobSpec job = TwoStageJob("big", 8, 8, 10);
  ASSERT_TRUE(sim2.SubmitJob(job).ok());
  auto r2 = sim2.Run();
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->jobs[0].completed);
}

TEST(ClusterSimTest, FineGrainedRecoveryBeatsJobRestart) {
  auto run = [&](bool fine) {
    SimConfig cfg = MakeSwiftSimConfig(10, 8);
    cfg.fine_grained_recovery = fine;
    ClusterSim sim(cfg);
    SimJobSpec job = TwoStageJob("j", 16, 8, 800);
    // Fail a reduce task late in the job.
    FailureInjection f;
    f.time = 8.0;
    f.stage = 1;
    f.kind = FailureKind::kProcessCrash;
    job.failures.push_back(f);
    EXPECT_TRUE(sim.SubmitJob(job).ok());
    auto report = sim.Run();
    EXPECT_TRUE(report.ok());
    return report->jobs[0];
  };
  const SimJobResult fine = run(true);
  const SimJobResult restart = run(false);
  EXPECT_TRUE(fine.completed);
  EXPECT_TRUE(restart.completed);
  EXPECT_LT(fine.Latency(), restart.Latency());
  EXPECT_LT(fine.tasks_rerun, restart.tasks_rerun);
  EXPECT_GE(fine.recoveries, 1);
}

TEST(ClusterSimTest, ApplicationFailureAbortsJob) {
  ClusterSim sim(MakeSwiftSimConfig(10, 8));
  SimJobSpec job = TwoStageJob("j", 16, 8, 300);
  FailureInjection f;
  f.time = 1.0;
  f.stage = 0;
  f.kind = FailureKind::kApplicationError;
  job.failures.push_back(f);
  ASSERT_TRUE(sim.SubmitJob(job).ok());
  auto report = sim.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->jobs[0].aborted);
  EXPECT_FALSE(report->jobs[0].completed);
}

TEST(ClusterSimTest, FailureAfterConsumersFinishedIsFree) {
  // Inject a crash into the map stage after the whole job would have
  // consumed its data: fine-grained recovery decides kNone.
  SimConfig cfg = MakeSwiftSimConfig(10, 8);
  ClusterSim base(cfg);
  SimJobSpec clean = TwoStageJob("j", 16, 8, 300, /*barrier=*/false);
  ASSERT_TRUE(base.SubmitJob(clean).ok());
  auto clean_report = base.Run();
  ASSERT_TRUE(clean_report.ok());
  const double clean_latency = clean_report->jobs[0].Latency();

  ClusterSim sim(cfg);
  SimJobSpec job = TwoStageJob("j", 16, 8, 300, /*barrier=*/false);
  FailureInjection f;
  f.time = clean_latency * 0.98;  // both stages essentially done
  f.stage = 0;
  f.kind = FailureKind::kProcessCrash;
  job.failures.push_back(f);
  ASSERT_TRUE(sim.SubmitJob(job).ok());
  auto report = sim.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->jobs[0].Latency(), clean_latency * 1.02);
}

TEST(ClusterSimTest, OccupancySeriesIsSane) {
  SimConfig cfg = MakeSwiftSimConfig(10, 8);
  ClusterSim sim(cfg);
  for (int i = 0; i < 5; ++i) {
    SimJobSpec job = TwoStageJob("j" + std::to_string(i), 8, 4, 200);
    job.submit_time = i * 0.5;
    ASSERT_TRUE(sim.SubmitJob(job).ok());
  }
  auto report = sim.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->occupancy.empty());
  int64_t peak = 0;
  for (const OccupancySample& s : report->occupancy) {
    EXPECT_GE(s.running_executors, 0);
    EXPECT_LE(s.running_executors, 80);
    peak = std::max(peak, s.running_executors);
  }
  EXPECT_GT(peak, 0);
  EXPECT_EQ(report->occupancy.back().running_executors, 0);
}

TEST(ClusterSimTest, DeterministicForSameSeed) {
  auto run = [&] {
    ClusterSim sim(MakeSparkSimConfig(10, 8));
    EXPECT_TRUE(sim.SubmitJob(TwoStageJob("j", 16, 8, 300)).ok());
    auto report = sim.Run();
    EXPECT_TRUE(report.ok());
    return report->jobs[0].Latency();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(ClusterSimTest, MachineFailureRemovesCapacityUntilRepair) {
  // A hog holds 9 of 27 executors (3 on each machine) for the whole run.
  // A tiny job loses the machine running its first task; a later
  // 18-executor gang still fits the two survivors, but only the repair
  // frees enough of them.
  auto run = [&](bool with_machine_failure) {
    SimConfig cfg = MakeSwiftSimConfig(3, 9);  // capacity 27
    cfg.machine_repair_seconds = 120.0;
    ClusterSim sim(cfg);
    SimJobSpec hog = TwoStageJob("hog", 6, 3, 20000, /*barrier=*/false);
    SimJobSpec tiny = TwoStageJob("tiny", 2, 1, 50);
    if (with_machine_failure) {
      FailureInjection f;
      f.time = 0.5;
      f.stage = 0;
      f.kind = FailureKind::kMachineFailure;
      tiny.failures.push_back(f);
    }
    SimJobSpec big = TwoStageJob("big", 9, 9, 50, /*barrier=*/false);
    big.submit_time = 30.0;  // after the tiny job is done
    EXPECT_TRUE(sim.SubmitJob(hog).ok());
    EXPECT_TRUE(sim.SubmitJob(tiny).ok());
    EXPECT_TRUE(sim.SubmitJob(big).ok());
    auto report = sim.Run();
    EXPECT_TRUE(report.ok());
    return *std::move(report);
  };
  const SimReport clean = run(false);
  const SimReport failed = run(true);
  ASSERT_TRUE(clean.jobs[2].completed);
  ASSERT_TRUE(failed.jobs[2].completed);
  // The hog outlives the repair, so only the repair can make room.
  ASSERT_GT(failed.jobs[0].finish_time, 130.0);
  // Without the failure the big job starts right away; with a machine
  // revoked it waits for the 120 s repair.
  EXPECT_LT(clean.jobs[2].first_alloc_time, 40.0);
  EXPECT_GT(failed.jobs[2].first_alloc_time, 100.0);
  EXPECT_TRUE(failed.jobs[0].completed);
  EXPECT_TRUE(failed.jobs[1].completed);
}

// Mirrors RuntimeGangTest.OversizedGangFailsFastOnBareRuntime: once a
// machine is revoked, a gang larger than the surviving executors aborts
// its job instead of waiting out the repair — whether it arrives after
// the failure or was already queued when the cluster shrank.
TEST(ClusterSimTest, GangLargerThanSurvivorsAborts) {
  SimConfig cfg = MakeSwiftSimConfig(2, 9);  // capacity 18
  cfg.machine_repair_seconds = 120.0;
  ClusterSim sim(cfg);
  SimJobSpec tiny = TwoStageJob("tiny", 2, 1, 50);
  FailureInjection f;
  f.time = 0.5;
  f.stage = 0;
  f.kind = FailureKind::kMachineFailure;
  tiny.failures.push_back(f);
  SimJobSpec queued = TwoStageJob("queued", 9, 9, 50, /*barrier=*/false);
  queued.submit_time = 0.2;  // waits behind the tiny job's gang
  SimJobSpec late = TwoStageJob("late", 9, 9, 50, /*barrier=*/false);
  late.submit_time = 30.0;
  ASSERT_TRUE(sim.SubmitJob(tiny).ok());
  ASSERT_TRUE(sim.SubmitJob(queued).ok());
  ASSERT_TRUE(sim.SubmitJob(late).ok());
  auto report = sim.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->jobs[0].completed);
  for (std::size_t j : {1u, 2u}) {
    const SimJobResult& r = report->jobs[j];
    EXPECT_TRUE(r.aborted) << r.name;
    EXPECT_LT(r.first_alloc_time, 0.0) << r.name << " was granted";
  }
  EXPECT_NEAR(report->jobs[1].finish_time, 0.5, 1e-9)
      << "the queued gang fails as soon as the machine is revoked";
  EXPECT_NEAR(report->jobs[2].finish_time, 30.0, 1e-9)
      << "the late gang fails at its request";
}

// An oversized arrival aborts while other gangs are queued and running;
// the abort must not re-enter the grant loop (it once erased from the
// request queue under a live iterator). Every job ends.
TEST(ClusterSimTest, OversizedArrivalAbortsAmidQueuedGangs) {
  ClusterSim sim(MakeJetScopeSimConfig(2, 4));  // capacity 8
  SimJobSpec hog = TwoStageJob("hog", 3, 3, 4000);
  SimJobSpec pair = TwoStageJob("pair", 2, 2, 10);
  pair.submit_time = 0.1;
  SimJobSpec huge = TwoStageJob("huge", 64, 64, 10);
  huge.submit_time = 70.0;
  ASSERT_TRUE(sim.SubmitJob(hog).ok());
  ASSERT_TRUE(sim.SubmitJob(pair).ok());
  ASSERT_TRUE(sim.SubmitJob(huge).ok());
  for (int i = 0; i < 3; ++i) {
    SimJobSpec one = TwoStageJob("one" + std::to_string(i), 1, 1, 10);
    one.submit_time = 71.0 + i;
    ASSERT_TRUE(sim.SubmitJob(one).ok());
  }
  auto report = sim.Run();
  ASSERT_TRUE(report.ok());
  for (const SimJobResult& r : report->jobs) {
    EXPECT_TRUE(r.completed != r.aborted) << r.name;
    EXPECT_EQ(r.aborted, r.name == "huge") << r.name;
  }
}

TEST(ClusterSimTest, MachineFailureDetectionUsesHeartbeat) {
  // Machine failures are detected via heartbeats, so the recovery delay
  // exceeds the process-crash path's self-report delay.
  auto run = [&](FailureKind kind) {
    SimConfig cfg = MakeSwiftSimConfig(10, 8);
    cfg.machine_repair_seconds = 1.0;  // isolate the detection term
    cfg.rerun_cost_fraction = 1.0;
    ClusterSim sim(cfg);
    SimJobSpec job = TwoStageJob("j", 16, 8, 800, /*barrier=*/true);
    FailureInjection f;
    f.time = 25.0;  // late in the map stage: recovery is on the path
    f.stage = 0;
    f.kind = kind;
    job.failures.push_back(f);
    EXPECT_TRUE(sim.SubmitJob(job).ok());
    auto report = sim.Run();
    EXPECT_TRUE(report.ok());
    return report->jobs[0].Latency();
  };
  EXPECT_GT(run(FailureKind::kMachineFailure),
            run(FailureKind::kProcessCrash));
}

TEST(CompressionModelTest, MirrorsShufflePlaneNegotiation) {
  CompressionModel cm;
  // Off by default: wire bytes are payload bytes, codec time is free.
  EXPECT_FALSE(cm.Applies(ShuffleKind::kRemote, 1e8, 16));
  EXPECT_DOUBLE_EQ(cm.WireBytes(ShuffleKind::kRemote, 1e8, 16), 1e8);
  EXPECT_DOUBLE_EQ(cm.CompressTime(ShuffleKind::kRemote, 1e8, 16, 4), 0.0);

  cm.enabled = true;
  // Barrier edges above the per-partition floor compress at `ratio`.
  EXPECT_TRUE(cm.Applies(ShuffleKind::kRemote, 1e8, 16));
  EXPECT_TRUE(cm.Applies(ShuffleKind::kLocal, 1e8, 16));
  EXPECT_DOUBLE_EQ(cm.WireBytes(ShuffleKind::kRemote, 1e8, 16),
                   1e8 * cm.ratio);
  // Direct edges never compress (pipelined, latency-bound).
  EXPECT_FALSE(cm.Applies(ShuffleKind::kDirect, 1e8, 16));
  EXPECT_DOUBLE_EQ(cm.WireBytes(ShuffleKind::kDirect, 1e8, 16), 1e8);
  // Mean per-partition payload below min_edge_bytes ships raw.
  EXPECT_FALSE(cm.Applies(ShuffleKind::kRemote, 1e4, 16));
  // Codec wall time scales with payload and splits across machines.
  EXPECT_DOUBLE_EQ(cm.CompressTime(ShuffleKind::kRemote, 1e8, 16, 4),
                   1e8 / (cm.compress_bw * 4));
  EXPECT_DOUBLE_EQ(cm.DecompressTime(ShuffleKind::kRemote, 1e8, 16, 4),
                   1e8 / (cm.decompress_bw * 4));
  EXPECT_GT(cm.CompressTime(ShuffleKind::kRemote, 1e8, 16, 4),
            cm.DecompressTime(ShuffleKind::kRemote, 1e8, 16, 4));
}

TEST(CompressionModelTest, CompressedRemoteJobFinishesFasterOnSlowWire) {
  // On a wire where transfer dominates, halving the bytes must beat the
  // codec CPU it costs (the regime the compressed plane targets).
  auto run = [](bool enabled) {
    SimConfig cfg = MakeSwiftSimConfig(4, 8);
    cfg.medium = ShuffleMedium::kMemoryForcedKind;
    cfg.forced_kind = ShuffleKind::kRemote;
    cfg.net.bw_per_machine = 5.0e7;  // slow fabric: bytes dominate
    cfg.compress.enabled = enabled;
    ClusterSim sim(cfg);
    EXPECT_TRUE(sim.SubmitJob(TwoStageJob("z", 16, 8, 300)).ok());
    auto report = sim.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->jobs[0].completed);
    return report->jobs[0].finish_time;
  };
  EXPECT_LT(run(true), run(false));
}

}  // namespace
}  // namespace swift
