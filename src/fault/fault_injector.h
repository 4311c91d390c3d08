#ifndef SWIFT_FAULT_FAULT_INJECTOR_H_
#define SWIFT_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>

#include "fault/failure.h"
#include "shuffle/cache_worker.h"

namespace swift {

/// \brief One seeded chaos scenario: which faults fire, how often, and
/// hard caps so every schedule terminates. All probabilistic choices are
/// pure functions of (seed, victim identity), never of draw order — wave
/// tasks run concurrently on a thread pool, so a stateful RNG would make
/// runs irreproducible.
struct FaultSchedule {
  uint64_t seed = 1;

  /// Probability that a task's first attempt dies with `task_crash_kind`
  /// (reruns always succeed, so recovery converges). 0 disables.
  double task_crash_p = 0.0;
  FailureKind task_crash_kind = FailureKind::kProcessCrash;
  int max_task_crashes = 4;

  /// Machine to kill once the global task-start counter reaches
  /// `kill_after_task_starts` (a mid-wave loss: some of its outputs are
  /// already consumed, some are not). -1 disables.
  int kill_machine = -1;
  int kill_after_task_starts = 1;

  /// Probability that a shuffle slot is a "flaky link": its reads time
  /// out for the first `timeouts_per_victim` attempts and then succeed,
  /// exercising the retry-in-place path. 0 disables.
  double read_timeout_p = 0.0;
  int timeouts_per_victim = 2;
  int max_read_timeouts = 64;

  /// Probability that a shuffle slot's payload is handed to its first
  /// reader with a flipped bit — caught by the serde CRC-32C footer and
  /// re-fetched. Fires at most once per slot. 0 disables.
  double corrupt_p = 0.0;
  int max_corruptions = 4;

  /// Probability that a compressed shuffle payload ("SWZ1" frame,
  /// common/compress.h) is served with a mangled frame header — caught
  /// by the frame's own magic/CRC checks inside DeserializeColumnBatch and
  /// re-fetched through the same corrupt-reread path. Payloads the
  /// writer shipped raw are bit-flipped instead (the fault still
  /// fires). Fires at most once per slot. 0 disables.
  double frame_corrupt_p = 0.0;
  int max_frame_corruptions = 4;

  /// Probability that spilling a slot to disk fails with a write error
  /// for its first `spill_write_fails_per_victim` attempts (the Cache
  /// Worker retries in place, so <= its retry budget means transient).
  /// 0 disables.
  double spill_write_fail_p = 0.0;
  int spill_write_fails_per_victim = 1;
  int max_spill_write_faults = 16;

  /// Probability that reloading a spilled slot fails for the first
  /// `spill_read_fails_per_victim` attempts. Victims alternate between
  /// hard IO errors and short reads; a count beyond the Cache Worker's
  /// retry budget makes the loss permanent, exercising the recovery
  /// escalation path. The global cap guarantees convergence: once spent,
  /// re-produced slots reload cleanly. 0 disables.
  double spill_read_fail_p = 0.0;
  int spill_read_fails_per_victim = 1;
  int max_spill_read_faults = 16;

  /// Models spill-disk quota exhaustion: once the injector has admitted
  /// this many spilled bytes, every further spill write fails with
  /// kDiskFull (the Cache Worker then degrades to backpressure).
  /// -1 disables.
  int64_t spill_disk_full_after_bytes = -1;
};

/// \brief What OnTaskStart tells the runtime to do.
struct TaskFault {
  /// Fail this task attempt with the given kind instead of running it.
  std::optional<FailureKind> fail;
  /// A scheduled machine loss fires now (before the task runs).
  std::optional<int> kill_machine;
};

/// \brief What OnShuffleRead tells the shuffle service to do.
enum class ReadFault {
  kNone = 0,
  kTimeout,       ///< transient: fail this attempt with Status::Timeout
  kCorrupt,       ///< serve the payload with a flipped bit
  kFrameCorrupt,  ///< serve a compressed frame with a mangled header
};

/// \brief What OnSpillWrite / OnSpillRead tell the Cache Worker to do.
enum class SpillFault {
  kNone = 0,
  kWriteError,  ///< this spill-write attempt fails with Status::IOError
  kReadError,   ///< this reload attempt fails with Status::IOError
  kShortRead,   ///< this reload attempt sees a truncated file
  kDiskFull,    ///< the spill dir is full: spilling is impossible
};

/// \brief Counters of faults actually injected.
struct FaultInjectorStats {
  int64_t task_starts = 0;
  int64_t task_crashes = 0;
  int64_t machine_kills = 0;
  int64_t read_timeouts = 0;
  int64_t corruptions = 0;
  int64_t frame_corruptions = 0;
  int64_t spill_write_faults = 0;
  int64_t spill_read_faults = 0;
  int64_t disk_full_faults = 0;
};

/// \brief Deterministic, scriptable fault source for the real runtime
/// (the chaos engine). Hook points live in LocalRuntime::RunTask and
/// ShuffleService::ReadPartition; the injector only decides, it never
/// mutates runtime state itself. Thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSchedule schedule);

  /// \brief Consulted at every task start. `attempt` is the task's
  /// failure count so far (0 = first run).
  TaskFault OnTaskStart(const TaskRef& task, int attempt);

  /// \brief Consulted at every shuffle-read attempt of `key`.
  ReadFault OnShuffleRead(const ShuffleSlotKey& key, int attempt);

  /// \brief Consulted before every spill-write attempt of `key`
  /// (`bytes` = payload size, counted toward the modeled disk quota
  /// only when the write is allowed through).
  SpillFault OnSpillWrite(const ShuffleSlotKey& key, int attempt,
                          int64_t bytes);

  /// \brief Consulted before every spill-reload attempt of `key`.
  SpillFault OnSpillRead(const ShuffleSlotKey& key, int attempt);

  const FaultSchedule& schedule() const { return schedule_; }
  FaultInjectorStats stats();

 private:
  const FaultSchedule schedule_;
  std::mutex mu_;
  FaultInjectorStats stats_;
  bool kill_fired_ = false;
  std::set<ShuffleSlotKey> corrupted_;        // one corruption per slot
  std::set<ShuffleSlotKey> frame_corrupted_;  // one frame mangle per slot
  int64_t modeled_spill_bytes_ = 0;     // for spill_disk_full_after_bytes
};

}  // namespace swift

#endif  // SWIFT_FAULT_FAULT_INJECTOR_H_
