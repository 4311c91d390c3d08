#ifndef SWIFT_SIM_MODELS_H_
#define SWIFT_SIM_MODELS_H_

#include <cstdint>

#include "shuffle/shuffle_mode.h"

namespace swift {

/// \brief Network cost model for the simulated 10 GbE fabric.
///
/// Calibrated against the paper's own measurements: TCP connection setup
/// costs "hundreds of milliseconds in a congested network" and "dozens
/// of seconds" for a task with hundreds of successors (Sec. V-E);
/// retransmission rates reach 3% for large Direct shuffles vs <0.02%
/// for the Cache-Worker schemes.
struct NetworkModel {
  /// Effective per-machine network bandwidth (bytes/s) on 10 GbE.
  double bw_per_machine = 1.0e9;
  /// Per-connection setup latency, uncongested.
  double base_conn_latency = 0.0008;
  /// Per-connection setup latency at full congestion.
  double congested_conn_latency = 0.06;
  /// Live-connection count where congestion begins / saturates.
  double congestion_onset = 8000.0;
  double congestion_full = 500000.0;
  /// Retransmission rate floor / ceiling.
  double base_retrans = 0.0002;
  double max_retrans = 0.03;
  /// Job-time amplification per unit retransmission rate.
  double retrans_penalty = 25.0;
  /// Fraction of connection setup on the critical path (tasks overlap
  /// connecting with transferring).
  double conn_setup_overlap = 0.5;
  /// Reader-side incast amplification per unit of fan-in connections
  /// relative to congestion_full (the TCP incast problem, Sec. III-B).
  double incast_penalty = 5.0;
  /// In-memory copy bandwidth per machine (extra copies of the
  /// Cache-Worker schemes).
  double copy_bw = 4.0e9;

  /// \brief Per-connection latency given total live connections.
  double ConnLatency(double total_conns) const;

  /// \brief Retransmission rate given total live connections (Direct
  /// only; Cache-Worker schemes stay at the floor).
  double RetransRate(ShuffleKind kind, double total_conns) const;

  /// \brief Wall time for one stage's tasks to establish the shuffle's
  /// connections (tasks work in parallel; each sets up its own
  /// connections serially).
  double ConnectionSetupTime(ShuffleKind kind, int64_t producers,
                             int64_t consumers, int64_t machines) const;

  /// \brief Wall time to move `bytes` across the fabric for a shuffle of
  /// the given shape (includes retransmission amplification and the
  /// scheme's extra memory copies).
  double TransferTime(ShuffleKind kind, double bytes, int64_t producers,
                      int64_t consumers, int64_t machines) const;
};

/// \brief Disk model for the file-based shuffle of the Spark/Bubble
/// baselines. Calibrated so a Q9-sized shuffle costs ~14x its in-memory
/// equivalent (paper Sec. V-C1: 137.8 s / 133.9 s disk vs 9.61 s /
/// 8.92 s memory).
struct DiskModel {
  double write_bw_per_machine = 65.0e6;
  double read_bw_per_machine = 70.0e6;
  /// Seek/open cost per shuffle partition file.
  double per_partition_seek = 0.25;
  /// Partition files a machine's disk array serves concurrently.
  double seek_parallelism = 48.0;
  /// Random-IO degradation: the seek term grows superlinearly once the
  /// partition count passes this scale (merge passes, page-cache misses
  /// — the Terasort "shoot up" of Table I).
  double superlinear_partitions = 4.0e6;
  /// Sequential bandwidth for final job output (AdhocSink stages).
  double sink_write_bw_per_machine = 1.2e8;

  double WriteTime(double bytes, int64_t partitions, int64_t machines) const;
  double ReadTime(double bytes, int64_t partitions, int64_t machines) const;
  /// \brief Sequential write of final output.
  double SinkWriteTime(double bytes, int64_t machines) const;
};

/// \brief First-order model of the compressed shuffle plane (DESIGN.md
/// Sec. 17). Barrier edges — Local and Remote; Direct edges stream and
/// are never framed — whose per-partition payload clears the
/// negotiation threshold ship `ratio` of their bytes over the fabric,
/// paying codec CPU at compress_bw on the writers and decompress_bw on
/// the readers (machines work in parallel, like TransferTime). Off by
/// default so every existing calibration is bit-identical.
struct CompressionModel {
  bool enabled = false;
  /// Wire bytes out / payload bytes in. TPC-H columnar shuffle payloads
  /// measure well under 0.5 with the in-tree SWZ1 codec (EXPERIMENTS.md
  /// compression table); 0.5 is a conservative cross-workload default.
  double ratio = 0.5;
  /// Mirror of kCompressMinBytes (common/compress.h): edges whose mean
  /// per-partition payload is below this ship raw.
  double min_edge_bytes = 4096.0;
  /// Codec throughput per machine (bytes/s of uncompressed payload),
  /// calibrated by bench_compress.
  double compress_bw = 300.0e6;
  double decompress_bw = 1.0e9;

  /// \brief Whether this edge's payloads get framed.
  bool Applies(ShuffleKind kind, double bytes, double partitions) const;
  /// \brief Bytes that actually cross the fabric for this edge.
  double WireBytes(ShuffleKind kind, double bytes, double partitions) const;
  /// \brief Writer-side codec wall time (y machines compress in parallel).
  double CompressTime(ShuffleKind kind, double bytes, double partitions,
                      int64_t machines) const;
  /// \brief Reader-side codec wall time.
  double DecompressTime(ShuffleKind kind, double bytes, double partitions,
                        int64_t machines) const;
};

/// \brief Task launch & compute model. Swift executors are pre-launched
/// (warm); the Spark baseline pays package download + executor start
/// per stage (Sec. V-C1 attributes >71 s of Q9 to launching).
struct TaskModel {
  double warm_launch = 0.05;
  double cold_launch_min = 6.0;
  double cold_launch_max = 10.0;
  /// Record-processing throughput per task (bytes/s).
  double process_rate = 30.0e6;
  /// Fixed per-task overhead (plan decode, setup).
  double task_overhead = 0.02;
  /// Fraction of a consumer's work overlapped with a pipelined
  /// (streaming) producer inside one graphlet.
  double pipeline_overlap = 0.85;

  /// \brief Pure compute time of one stage (tasks run in parallel).
  double ProcessTime(double input_bytes_per_task, double cpu_cost_factor) const;
};

}  // namespace swift

#endif  // SWIFT_SIM_MODELS_H_
