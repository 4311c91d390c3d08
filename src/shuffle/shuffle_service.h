#ifndef SWIFT_SHUFFLE_SHUFFLE_SERVICE_H_
#define SWIFT_SHUFFLE_SHUFFLE_SERVICE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "shuffle/cache_worker.h"
#include "shuffle/shuffle_buffer.h"
#include "shuffle/shuffle_mode.h"

namespace swift {

/// \brief Counters of one ShuffleService instance.
struct ShuffleServiceStats {
  int64_t tcp_connections = 0;   ///< distinct endpoint pairs used
  int64_t direct_writes = 0;
  int64_t local_writes = 0;
  int64_t remote_writes = 0;
  int64_t reads = 0;
  int64_t bytes_transferred = 0;
  /// Paper accounting (Sec. III-B): +0 (Direct) / +1 (Remote) / +2
  /// (Local) modeled in-memory copies per write. Stays as bookkeeping —
  /// the zero-copy plane shares one allocation across those hops.
  int64_t modeled_memory_copies = 0;
  /// Reader-side Cache Worker replicas created for Local shuffle reads;
  /// each shares the writer-side allocation (no bytes copied).
  int64_t local_replicas = 0;
  /// Read attempts repeated after a transient (timeout / IO) error.
  int64_t read_retries = 0;
  /// Transient read timeouts observed (injected or real).
  int64_t read_timeouts = 0;
  /// Reads served from a surviving replica after the writer-side copy
  /// was lost (machine failure failover).
  int64_t failover_reads = 0;
  /// Payloads handed out with an injected bit flip (chaos engine).
  int64_t corrupt_payloads = 0;
  /// FailMachine calls acted on.
  int64_t machine_failures = 0;
  /// Writer-side flow control: bounded blocking waits taken after a
  /// Cache Worker refused a put with kBackpressure.
  int64_t put_backpressure_waits = 0;
  /// Writes whose payload went out as a compressed frame (negotiated
  /// per edge; see Config::compression).
  int64_t compressed_writes = 0;
  /// Pre-compression payload bytes of those writes.
  int64_t compress_bytes_in = 0;
  /// Framed bytes actually shipped for them; bytes_transferred and the
  /// per-mode byte counters account these (the wire carries the frame).
  int64_t compress_bytes_out = 0;
  /// Eligible writes whose frame did not shrink the payload (sent raw).
  int64_t compress_skipped = 0;
  /// Extra write-side replicas placed by Config::replica_fanout.
  int64_t replica_writes = 0;
};

/// \brief One Cache Worker's load as seen by replica placement and the
/// obs dashboards: resident cache bytes plus live spill-file bytes (the
/// two components of how "full" a worker is).
struct ShuffleWorkerLoad {
  int machine = 0;
  bool dead = false;
  int64_t resident_bytes = 0;
  int64_t spill_disk_bytes = 0;
};

/// Bounded exponential-backoff retry of transient shuffle read errors
/// (timeouts, spill IO races): at most kMaxReadAttempts attempts, the
/// wait between them doubling from kReadBackoffBaseMs up to
/// kReadBackoffMaxMs. Permanent loss — NotFound with no surviving
/// replica — is never retried; it escalates to recovery.
inline constexpr int kMaxReadAttempts = 4;
inline constexpr double kReadBackoffBaseMs = 0.2;
inline constexpr double kReadBackoffMaxMs = 5.0;

/// \brief The cluster-wide shuffle fabric of the local runtime: one
/// Cache Worker per machine plus a direct task-to-task path, with the
/// three schemes of Fig. 5 and connection accounting matching the
/// paper's formulas.
///
/// Payloads travel as immutable shared ShuffleBuffers: a partition is
/// allocated once by the producing task, and the direct slot, writer-
/// and reader-side workers, retained recovery slots, and Peek re-sends
/// all reference that single allocation.
class ShuffleService {
 public:
  struct Config {
    int machines = 4;
    int64_t cache_memory_per_worker = 64LL << 20;
    std::string spill_root;  ///< "" disables spill
    /// Cap on live spill-file bytes per worker; 0 = unbounded. The
    /// Cache Workers' watermarks, per-job quota and spill IO retries
    /// are constants (shuffle/cache_worker.h).
    int64_t spill_disk_budget_bytes = 0;
    /// Writer-side flow control: a backpressured put blocks up to
    /// put_wait_ms waiting for readers to drain, retried up to
    /// put_retry_budget times; after that the put is forced through
    /// (deadlock guard — a writer that is also the job's only drainer,
    /// e.g. under retain_for_recovery where slots pin until RemoveJob,
    /// must always make progress). Overshoot is bounded by one payload
    /// per writer.
    int put_retry_budget = 64;
    double put_wait_ms = 2.0;
    /// Force one scheme for all edges (Fig. 12 experiments); nullopt =
    /// adaptive selection by edge size (SelectShuffleKind).
    std::optional<ShuffleKind> force_kind;
    /// Pin shuffle data until RemoveJob instead of freeing on first read
    /// (enables fine-grained failure recovery re-reads).
    bool retain_for_recovery = true;
    /// Compressed shuffle plane (DESIGN.md Sec. 17). Barrier edges —
    /// Remote, and Local when not pipelined — whose payload is at least
    /// kCompressMinBytes go out as a CompressFrame (common/compress.h)
    /// when the frame actually shrinks the payload; Direct edges,
    /// pipeline pushes, and small payloads ship raw. Readers need no
    /// negotiation: serde dispatches on the frame magic. All byte
    /// accounting (bytes_transferred, per-mode counters, Cache Worker
    /// budgets, conservation laws) sees the framed size — compressed
    /// bytes ARE the wire/resident bytes. The same flag turns on the
    /// Cache Workers' spill compression (CacheWorkerOptions).
    bool compression = true;
    /// Extra write-side replicas for worker-held (Local/Remote)
    /// partitions: each write lands on the writer's worker plus up to
    /// replica_fanout - 1 other live workers, so FailMachine costs no
    /// data even before any reader replicated it. 1 (default) disables —
    /// the paper's connection formulas and byte accounting are
    /// unchanged. Replicas require retain_for_recovery.
    /// Replica targets are the least-loaded live workers (resident +
    /// spill-disk bytes, see per_worker_load()).
    int replica_fanout = 1;
    /// Optional metrics sink (not owned): per-mode byte/connection
    /// counters plus the byte-conservation accounting shared with the
    /// Cache Workers (see DESIGN.md Sec. 11).
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit ShuffleService(Config config);

  /// \brief Scheme used for a shuffle of the given edge size.
  ShuffleKind KindFor(int64_t shuffle_edge_size) const;

  /// \brief Stores the partition `key` (produced on `writer_machine`),
  /// sharing the caller's allocation. `pipelined` distinguishes pipeline
  /// edges (data pushed to the reader side immediately) from barrier
  /// edges (data parked on the writer side until pulled) for Local
  /// Shuffle.
  Status WritePartition(ShuffleKind kind, const ShuffleSlotKey& key,
                        ShuffleBuffer buffer, int writer_machine,
                        bool pipelined);

  /// \brief Convenience overload wrapping `bytes` into a fresh buffer.
  Status WritePartition(ShuffleKind kind, const ShuffleSlotKey& key,
                        std::string bytes, int writer_machine,
                        bool pipelined) {
    return WritePartition(kind, key, ShuffleBuffer(std::move(bytes)),
                          writer_machine, pipelined);
  }

  /// \brief Fetches the partition for the reader on `reader_machine`;
  /// `writer_machine` is where the producing task ran. The returned
  /// buffer shares the stored allocation (zero copies); Local reads on a
  /// retaining service also leave a shared replica on the reader-side
  /// worker so later readers of that machine stay local.
  Result<ShuffleBuffer> ReadPartition(ShuffleKind kind,
                                      const ShuffleSlotKey& key,
                                      int reader_machine, int writer_machine);

  /// \brief True when the partition is still available (recovery check).
  bool HasPartition(ShuffleKind kind, const ShuffleSlotKey& key,
                    int writer_machine);

  /// \brief True when the partition survives anywhere — the direct path
  /// or any live Cache Worker (writer-side or a reader-side replica).
  /// Feeds RecoveryContext::failed_output_available.
  bool PartitionAvailable(ShuffleKind kind, const ShuffleSlotKey& key);

  /// \brief Machine `m` died: its Cache Worker state (memory and spill)
  /// and the direct slots written by its tasks are gone. Reads fall over
  /// to surviving replicas where one exists; otherwise they report
  /// permanent loss for recovery to handle.
  void FailMachine(int machine);

  /// \brief Machine `m` repaired: rejoins with an empty Cache Worker.
  void RestoreMachine(int machine);

  bool IsMachineDead(int machine);

  /// \brief Chaos-engine hook consulted on every read attempt and every
  /// Cache Worker spill write/reload (not owned; nullptr disables
  /// injection).
  void set_fault_injector(FaultInjector* injector);

  /// \brief Frees all state of `job` across workers and the direct path.
  void RemoveJob(JobId job);

  /// \brief Drops retained output of `stage` (non-idempotent re-run).
  void RemoveStageOutput(JobId job, StageId stage);

  CacheWorker* worker(int machine) { return workers_[static_cast<std::size_t>(machine)].get(); }
  int machines() const { return static_cast<int>(workers_.size()); }

  ShuffleServiceStats stats();

  /// \brief Sum of all Cache Workers' counters (cluster-wide view of
  /// backpressure / quota / spill-fault activity).
  CacheWorkerStats worker_stats();

  /// \brief Per-worker resident and spill-disk bytes — the one source
  /// of truth shared by load-aware replica placement and the obs
  /// dashboards. Also refreshes the `shuffle.worker.<m>.resident_bytes`
  /// and `shuffle.worker.<m>.spill_disk_bytes` gauges.
  std::vector<ShuffleWorkerLoad> per_worker_load();

 private:
  /// Put with writer→reader flow control: bounded blocking on
  /// kBackpressure, forced admission once the retry budget is spent.
  Status PutWithFlowControl(int machine, const ShuffleSlotKey& key,
                            ShuffleBuffer buffer, int expected_reads);
  // Endpoint ids: tasks and cache workers live in one id space so the
  // distinct-connection count follows the paper's formulas.
  int64_t TaskEndpoint(const ShuffleSlotKey& key, bool writer) const;
  int64_t WorkerEndpoint(int machine) const;
  void Connect(int64_t from, int64_t to, ShuffleKind kind);
  /// Attributes a successful read's bytes to the per-mode counter.
  Result<ShuffleBuffer> CountRead(ShuffleKind kind,
                                  Result<ShuffleBuffer> buffer);
  /// One read attempt, including replica failover; no retry.
  Result<ShuffleBuffer> ReadPartitionOnce(ShuffleKind kind,
                                          const ShuffleSlotKey& key,
                                          int reader_machine,
                                          int writer_machine);
  /// Scans live workers (writer first) for any copy of `key`.
  Result<ShuffleBuffer> PeekAnyReplica(const ShuffleSlotKey& key,
                                       int writer_machine);
  /// Compresses an eligible barrier-edge payload in place; returns the
  /// original buffer untouched when framing does not win.
  ShuffleBuffer MaybeCompress(ShuffleKind kind, bool pipelined,
                              ShuffleBuffer buffer);
  /// Places best-effort extra replicas of a worker-held partition on
  /// the replica_fanout - 1 least-loaded live workers.
  void PlaceReplicas(const ShuffleSlotKey& key, const ShuffleBuffer& buffer,
                     int writer_machine);
  bool IsMachineDeadLocked(int machine) const {
    return dead_.count(machine) > 0;
  }

  /// One Direct-path partition. It lives in the producing task's
  /// process, so it dies with the writer's machine.
  struct DirectSlot {
    ShuffleBuffer buffer;
    int writer = 0;        ///< machine that wrote it
    bool touched = false;  ///< read at least once (bytes consumed)
  };
  using DirectMap = std::map<ShuffleSlotKey, DirectSlot>;
  /// Erases one direct slot and returns the next; a slot never read
  /// counts as evicted unconsumed. Requires mu_.
  DirectMap::iterator EraseDirectLocked(DirectMap::iterator it);

  Config config_;
  std::vector<std::unique_ptr<CacheWorker>> workers_;
  FaultInjector* injector_ = nullptr;
  std::mutex mu_;
  DirectMap direct_;
  std::set<int> dead_;
  std::set<std::pair<int64_t, int64_t>> connections_;
  ShuffleServiceStats stats_;

  // Cached registry handles (nullptr when Config::metrics is null).
  struct Instruments {
    obs::Counter* connections[3] = {nullptr, nullptr, nullptr};
    obs::Counter* bytes_written[3] = {nullptr, nullptr, nullptr};
    obs::Counter* bytes_read[3] = {nullptr, nullptr, nullptr};
    obs::Counter* bytes_written_total = nullptr;
    obs::Counter* bytes_consumed = nullptr;
    obs::Counter* bytes_evicted_unconsumed = nullptr;
    obs::Counter* read_retries = nullptr;
    obs::Counter* read_timeouts = nullptr;
    obs::Counter* failover_reads = nullptr;
    obs::Counter* corrupt_payloads = nullptr;
    obs::Counter* machine_failures = nullptr;
    obs::Counter* local_replicas = nullptr;
    obs::Counter* backpressure_waits = nullptr;
    obs::Counter* compressed_writes = nullptr;
    obs::Counter* compress_bytes_in = nullptr;
    obs::Counter* compress_bytes_out = nullptr;
    obs::Counter* compress_skipped = nullptr;
    obs::Counter* replica_writes = nullptr;
    /// Per-worker load gauges, refreshed by per_worker_load().
    std::vector<obs::Gauge*> worker_resident;
    std::vector<obs::Gauge*> worker_spill_disk;
  } metrics_;
};

}  // namespace swift

#endif  // SWIFT_SHUFFLE_SHUFFLE_SERVICE_H_
