#ifndef SWIFT_SHUFFLE_CACHE_WORKER_H_
#define SWIFT_SHUFFLE_CACHE_WORKER_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>

#include "common/result.h"
#include "dag/job_dag.h"
#include "obs/metrics.h"
#include "shuffle/shuffle_buffer.h"

namespace swift {

class FaultInjector;

/// \brief Identifies one shuffle partition: data produced by task
/// `src_task` of stage `src_stage` destined for task `dst_task` of stage
/// `dst_stage` within job `job`.
struct ShuffleSlotKey {
  JobId job = 0;
  StageId src_stage = -1;
  int src_task = 0;
  StageId dst_stage = -1;
  int dst_task = 0;

  auto operator<=>(const ShuffleSlotKey&) const = default;
  std::string ToString() const;
};

/// \brief Counters exposed by a Cache Worker.
struct CacheWorkerStats {
  int64_t puts = 0;
  int64_t gets = 0;
  int64_t bytes_written = 0;
  int64_t bytes_read = 0;
  int64_t spilled_slots = 0;   ///< LRU evictions to disk
  int64_t spilled_bytes = 0;
  int64_t reloads = 0;         ///< reads served from spill files
  int64_t deletions = 0;       ///< slots freed after full consumption
  int64_t memory_in_use = 0;   ///< resident slot bytes charged to the budget
  int64_t peak_memory_in_use = 0;  ///< high-water mark of memory_in_use
  int64_t spill_disk_in_use = 0;   ///< live spill-file bytes (incl. footers)
  /// Conservation-law accounting (tests/obs_invariant_test.cc): every
  /// stored byte is eventually either consumed (its slot read at least
  /// once) or evicted unconsumed (its slot dropped before any read), so
  /// after all slots are removed:
  ///   bytes_written == bytes_consumed + bytes_evicted_unconsumed.
  /// Backpressured puts never enter bytes_written — rejected bytes are
  /// counted separately and stay outside the conservation law.
  int64_t bytes_consumed = 0;           ///< slot size on its first read
  int64_t bytes_evicted_unconsumed = 0; ///< slot size when dropped unread
  // Flow control / quota / spill-fault accounting.
  int64_t backpressure_rejections = 0;  ///< puts refused with kBackpressure
  int64_t bytes_rejected = 0;           ///< payload bytes of refused puts
  int64_t forced_admits = 0;       ///< gate bypasses (deadlock guard)
  int64_t quota_evictions = 0;     ///< victims picked from over-quota jobs
  int64_t spill_io_errors = 0;     ///< failed spill write/read attempts
  int64_t spill_io_retries = 0;    ///< transient spill IO errors retried
  int64_t spill_lost_slots = 0;    ///< slots dropped after permanent IO loss
  // Spill-time compression accounting. spilled_bytes above counts the
  // *logical* slot bytes leaving memory; spill_stored_bytes counts what
  // actually hit the disk (the compressed frame when it won), which is
  // also what spill_disk_in_use and the disk budget charge.
  int64_t spill_compressed_slots = 0;  ///< spills written as a frame
  int64_t spill_stored_bytes = 0;      ///< payload bytes written to disk

  /// Field-wise sum (the service's cluster-wide view). A field added
  /// above must be added here too; the size check below enforces it.
  CacheWorkerStats& operator+=(const CacheWorkerStats& o) {
    puts += o.puts;
    gets += o.gets;
    bytes_written += o.bytes_written;
    bytes_read += o.bytes_read;
    spilled_slots += o.spilled_slots;
    spilled_bytes += o.spilled_bytes;
    reloads += o.reloads;
    deletions += o.deletions;
    memory_in_use += o.memory_in_use;
    peak_memory_in_use += o.peak_memory_in_use;
    spill_disk_in_use += o.spill_disk_in_use;
    bytes_consumed += o.bytes_consumed;
    bytes_evicted_unconsumed += o.bytes_evicted_unconsumed;
    backpressure_rejections += o.backpressure_rejections;
    bytes_rejected += o.bytes_rejected;
    forced_admits += o.forced_admits;
    quota_evictions += o.quota_evictions;
    spill_io_errors += o.spill_io_errors;
    spill_io_retries += o.spill_io_retries;
    spill_lost_slots += o.spill_lost_slots;
    spill_compressed_slots += o.spill_compressed_slots;
    spill_stored_bytes += o.spill_stored_bytes;
    return *this;
  }
};
static_assert(sizeof(CacheWorkerStats) == 22 * sizeof(int64_t),
              "CacheWorkerStats::operator+= must sum every field");

/// Cache Worker admission policy (DESIGN.md Sec. 15), as fractions of the
/// memory budget. LRU spill runs ahead of demand from the soft watermark;
/// un-forced puts that would exceed the budget itself (the hard
/// watermark, 1.0) get kBackpressure; and eviction prefers the slots of
/// jobs holding more than the per-job quota.
inline constexpr double kCacheSoftWatermark = 0.75;
inline constexpr double kCachePerJobQuota = 0.5;
/// Transient spill write/read IO errors are retried in place this many
/// times before the error is treated as permanent.
inline constexpr int kSpillIoRetries = 3;

/// \brief Construction knobs for a Cache Worker.
struct CacheWorkerOptions {
  /// In-memory capacity, which is also the hard watermark.
  int64_t memory_budget_bytes = 64LL << 20;
  /// Directory for spill files ("" disables spilling: over-budget puts
  /// then return kBackpressure instead of storing anything).
  std::string spill_dir;
  /// Cap on live spill-file bytes; 0 = unbounded. When the cap is hit
  /// the worker stops spilling and degrades to backpressure.
  int64_t spill_disk_budget_bytes = 0;
  /// Spill-time compression: slots of at least kCompressMinBytes whose
  /// payload is not already a compressed frame go to disk as one
  /// (common/compress.h) when the frame shrinks the payload. The disk
  /// budget and spill_disk_in_use charge the stored (compressed) size;
  /// reload CRC-verifies the file, decompresses, and re-admits the
  /// original bytes — callers always see the bytes they stored.
  bool spill_compression = true;
  /// Optional registry (not owned); all workers of one service share the
  /// same counters, so registry values are cluster-wide aggregates.
  obs::MetricsRegistry* metrics = nullptr;
};

/// \brief The per-machine shuffle buffer of Sec. III-B.
///
/// Local and Remote Shuffle write partitions here; readers pull them
/// out. Slots hold immutable shared ShuffleBuffers: a Get/Peek hands
/// back the slot's allocation (reference-counted), never a copy, so
/// retained-for-recovery re-sends and reader-side replicas are free.
/// Memory is reclaimed once a slot has been read `expected_reads` times
/// (data "consumed by all successor tasks"). Under memory pressure, the
/// least-recently-used slots are swapped to spill files — the paper's
/// LRU swap — and transparently reloaded on access. Each worker spills
/// into its own fresh directory under `spill_dir` and removes it on
/// destruction, so any number of workers (and runtimes) may share one
/// `spill_dir` without touching each other's files.
///
/// Flow control (FuxiShuffle direction, ROADMAP item 3): admission runs
/// against soft/hard watermarks over resident bytes. Spill keeps the
/// worker under soft; when spilling cannot help (disabled, disk full, or
/// failing), Put returns a retryable kBackpressure instead of growing
/// without bound — writers block in ShuffleService::WritePartition until
/// readers drain, with a forced-admission escape hatch so a writer that
/// is also the job's only drainer always makes progress. Slots are
/// charged to their job: eviction picks victims from over-quota jobs
/// first so one heavy job cannot flush another job's hot partitions.
///
/// Spill files carry a CRC-32C footer, verified on reload. Transient IO
/// errors are retried in place; a permanently unreadable spill file
/// drops the slot (the service's NotFound path then escalates to replica
/// failover / producer re-run recovery). Thread-safe.
class CacheWorker {
 public:
  explicit CacheWorker(CacheWorkerOptions options);
  ~CacheWorker();

  CacheWorker(const CacheWorker&) = delete;
  CacheWorker& operator=(const CacheWorker&) = delete;

  /// \brief Stores a partition, sharing the caller's allocation (no
  /// bytes are copied). `expected_reads` <= 0 means "retain until
  /// RemoveJob" (barrier data kept for cross-graphlet recovery).
  /// Returns kBackpressure when admission would exceed the hard
  /// watermark and spilling cannot make room; `force` bypasses the gate
  /// (the caller has proven waiting cannot help — deadlock guard).
  Status Put(const ShuffleSlotKey& key, ShuffleBuffer buffer,
             int expected_reads, bool force = false);

  /// \brief Convenience overload wrapping `bytes` in a fresh buffer.
  Status Put(const ShuffleSlotKey& key, std::string bytes,
             int expected_reads, bool force = false) {
    return Put(key, ShuffleBuffer(std::move(bytes)), expected_reads, force);
  }

  /// \brief Blocks until `bytes` more resident bytes would fit under the
  /// hard watermark, something drains, or `timeout_ms` elapses. Returns
  /// false immediately when `bytes` can never fit (oversized payload) so
  /// callers escalate to a forced Put instead of spinning.
  bool WaitForCapacity(int64_t bytes, double timeout_ms);

  /// \brief Reads a partition (counts toward consumption). The returned
  /// buffer shares the slot's allocation. NotFound if the slot was never
  /// written or already fully consumed.
  Result<ShuffleBuffer> Get(const ShuffleSlotKey& key);

  /// \brief Reads without consuming (recovery re-sends, Sec. IV-B).
  Result<ShuffleBuffer> Peek(const ShuffleSlotKey& key);

  bool Contains(const ShuffleSlotKey& key);

  /// \brief Drops every slot of `job` (job completion / abort) and
  /// reclaims its quota charge atomically.
  void RemoveJob(JobId job);

  /// \brief Drops every slot written by `stage` of `job` (non-idempotent
  /// upstream re-run invalidates retained data).
  void RemoveStageOutput(JobId job, StageId stage);

  /// \brief Drops every slot, spilled or resident (machine failure: the
  /// worker's memory and local disk die with the machine).
  void Clear();

  /// \brief Installs the chaos engine's spill-fault source (not owned).
  void set_fault_injector(FaultInjector* injector);

  CacheWorkerStats stats();
  const CacheWorkerOptions& options() const { return options_; }
  /// \brief The private directory this worker's spill files live in
  /// ("" when spilling is disabled).
  const std::string& spill_path() const { return spill_path_; }

 private:
  struct Slot {
    ShuffleBuffer buffer;     // !valid() when spilled
    int64_t size = 0;
    int expected_reads = 0;   // <=0: pinned until RemoveJob
    int reads = 0;
    bool touched = false;     // read at least once (Get or Peek)
    bool spilled = false;
    std::string spill_path;
    /// Bytes on disk excluding the CRC footer; < size when the spill
    /// file holds a compressed frame. Meaningful only while spilled.
    int64_t stored_size = 0;
    bool spill_compressed = false;
    std::list<ShuffleSlotKey>::iterator lru_it;
    bool in_lru = false;
  };

  /// Why capacity is being made: a fresh Put obeys the gate, a forced
  /// Put and a spill reload admit overshoot (reload is the drain side —
  /// refusing it would wedge the very readers that relieve pressure).
  enum class AdmitMode { kPut, kForced, kReload };

  Status EnsureCapacityLocked(int64_t incoming, JobId job, AdmitMode mode);
  /// Quota-aware victim choice: the LRU slot of an over-quota job if one
  /// exists, else the global LRU slot. Null when nothing is evictable.
  /// `*quota_preferred` is set when quota skipped an under-quota job's
  /// less-recently-used slot.
  Slot* PickVictimLocked(ShuffleSlotKey* out_key, bool* quota_preferred);
  Status SpillLocked(const ShuffleSlotKey& key, Slot* slot);
  Result<ShuffleBuffer> LoadLocked(const ShuffleSlotKey& key, Slot* slot);
  void EraseLocked(const ShuffleSlotKey& key);
  void TouchLocked(const ShuffleSlotKey& key, Slot* slot);
  /// First read of a slot: flips `touched` and counts its bytes consumed.
  void MarkConsumedLocked(Slot* slot);
  void ChargeJobLocked(JobId job, int64_t delta);
  bool OverQuotaLocked(JobId job) const;
  bool SpillCapableLocked(int64_t bytes) const;
  void NoteResidentGrewLocked();
  void NoteResidentShrankLocked();

  const CacheWorkerOptions options_;
  const int64_t soft_bytes_;
  const int64_t hard_bytes_;  // the memory budget
  const int64_t job_quota_bytes_;
  std::string spill_path_;  // private spill directory under spill_dir
  std::mutex mu_;
  std::condition_variable drain_cv_;  // signaled when resident bytes drop
  std::map<ShuffleSlotKey, Slot> slots_;
  std::list<ShuffleSlotKey> lru_;  // front = least recently used
  std::map<JobId, int64_t> job_resident_;  // resident bytes charged per job
  CacheWorkerStats stats_;
  int64_t spill_seq_ = 0;
  bool spill_disk_full_ = false;  // latched on (injected) disk exhaustion
  FaultInjector* injector_ = nullptr;  // not owned

  // Cached registry handles (nullptr when no registry is installed).
  struct {
    obs::Counter* puts = nullptr;
    obs::Counter* gets = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Counter* bytes_written = nullptr;
    obs::Counter* bytes_consumed = nullptr;
    obs::Counter* bytes_evicted_unconsumed = nullptr;
    obs::Counter* spill_slots = nullptr;
    obs::Counter* spill_bytes = nullptr;
    obs::Counter* spill_stored_bytes = nullptr;
    obs::Counter* reloads = nullptr;
    obs::Counter* deletions = nullptr;
    obs::Counter* backpressure_rejections = nullptr;
    obs::Counter* backpressure_rejected_bytes = nullptr;
    obs::Counter* backpressure_forced_admits = nullptr;
    obs::Counter* quota_evictions = nullptr;
    obs::Counter* spill_io_errors = nullptr;
    obs::Counter* spill_retries = nullptr;
    obs::Counter* spill_lost_slots = nullptr;
  } metrics_;
};

}  // namespace swift

#endif  // SWIFT_SHUFFLE_CACHE_WORKER_H_
