#include "shuffle/shuffle_service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/compress.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace swift {

namespace {

// A corrupted wire payload, on a private copy: the retained slot keeps
// the good bytes, so the re-fetch after the rejection succeeds.
// kFrameCorrupt mangles a compressed frame's codec tag (byte 4) so the
// reader's DecompressFrame rejects the envelope itself rather than the
// inner serde CRC. kCorrupt, and kFrameCorrupt on a raw payload (the
// writer negotiated no compression for this edge), flip one bit in the
// CRC-covered region — the fault still fires and still fails closed.
ShuffleBuffer CorruptCopy(const ShuffleBuffer& buffer, ReadFault fault) {
  std::string bytes(buffer.view());
  if (fault == ReadFault::kFrameCorrupt && IsCompressedFrame(bytes) &&
      bytes.size() > 4) {
    bytes[4] ^= 0x7F;
  } else if (!bytes.empty()) {
    bytes[bytes.size() / 2] ^= 0x01;
  }
  return ShuffleBuffer(std::move(bytes));
}

}  // namespace

ShuffleService::ShuffleService(Config config) : config_(std::move(config)) {
  if (config_.machines < 1) config_.machines = 1;
  workers_.reserve(static_cast<std::size_t>(config_.machines));
  for (int m = 0; m < config_.machines; ++m) {
    CacheWorkerOptions wo;
    wo.memory_budget_bytes = config_.cache_memory_per_worker;
    if (!config_.spill_root.empty()) {
      wo.spill_dir = StrFormat("%s/cw%d", config_.spill_root.c_str(), m);
    }
    wo.spill_disk_budget_bytes = config_.spill_disk_budget_bytes;
    wo.spill_compression = config_.compression;
    wo.metrics = config_.metrics;
    workers_.push_back(std::make_unique<CacheWorker>(std::move(wo)));
  }
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry* reg = config_.metrics;
    for (ShuffleKind kind : {ShuffleKind::kDirect, ShuffleKind::kLocal,
                             ShuffleKind::kRemote}) {
      const std::string mode(ShuffleKindToString(kind));
      const auto i = static_cast<std::size_t>(kind);
      metrics_.connections[i] = reg->counter("shuffle.connections." + mode);
      metrics_.bytes_written[i] = reg->counter("shuffle." + mode + ".bytes_written");
      metrics_.bytes_read[i] = reg->counter("shuffle." + mode + ".bytes_read");
    }
    // The same conservation-law counters the Cache Workers feed; the
    // direct path bypasses the workers, so the service covers it here.
    metrics_.bytes_written_total = reg->counter("shuffle.bytes_written");
    metrics_.bytes_consumed = reg->counter("shuffle.bytes_consumed");
    metrics_.bytes_evicted_unconsumed =
        reg->counter("shuffle.bytes_evicted_unconsumed");
    metrics_.read_retries = reg->counter("shuffle.read_retries");
    metrics_.read_timeouts = reg->counter("shuffle.read_timeouts");
    metrics_.failover_reads = reg->counter("shuffle.failover_reads");
    metrics_.corrupt_payloads = reg->counter("shuffle.corrupt_payloads");
    metrics_.machine_failures = reg->counter("shuffle.machine_failures");
    metrics_.local_replicas = reg->counter("shuffle.local_replicas");
    metrics_.backpressure_waits = reg->counter("shuffle.backpressure.waits");
    metrics_.compressed_writes = reg->counter("shuffle.compress.writes");
    metrics_.compress_bytes_in = reg->counter("shuffle.compress.bytes_in");
    metrics_.compress_bytes_out = reg->counter("shuffle.compress.bytes_out");
    metrics_.compress_skipped = reg->counter("shuffle.compress.skipped");
    metrics_.replica_writes = reg->counter("shuffle.replica_writes");
    metrics_.worker_resident.resize(workers_.size());
    metrics_.worker_spill_disk.resize(workers_.size());
    for (std::size_t m = 0; m < workers_.size(); ++m) {
      metrics_.worker_resident[m] = reg->gauge(
          StrFormat("shuffle.worker.%d.resident_bytes", static_cast<int>(m)));
      metrics_.worker_spill_disk[m] = reg->gauge(
          StrFormat("shuffle.worker.%d.spill_disk_bytes", static_cast<int>(m)));
    }
  }
}

void ShuffleService::set_fault_injector(FaultInjector* injector) {
  injector_ = injector;
  for (auto& w : workers_) w->set_fault_injector(injector);
}

Status ShuffleService::PutWithFlowControl(int machine,
                                          const ShuffleSlotKey& key,
                                          ShuffleBuffer buffer,
                                          int expected_reads) {
  CacheWorker* w = workers_[static_cast<std::size_t>(machine)].get();
  const int64_t size = static_cast<int64_t>(buffer.size());
  const int budget = std::max(0, config_.put_retry_budget);
  for (int attempt = 0; attempt < budget; ++attempt) {
    // The handle is copied, not the payload, so retries are free.
    Status st = w->Put(key, buffer, expected_reads);
    if (!st.IsBackpressure()) return st;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.put_backpressure_waits += 1;
      obs::Add(metrics_.backpressure_waits);
    }
    if (!w->WaitForCapacity(size, config_.put_wait_ms) && size > 0) {
      // Either the wait timed out (keep retrying: a reader may drain
      // between our probe and the next Put) or the payload can never
      // fit under the hard watermark, which is the whole budget —
      // detect the latter and escalate.
      if (size > w->options().memory_budget_bytes) break;
    }
  }
  // Retry budget spent, or waiting provably cannot help. This writer may
  // be the job's only drainer (retained slots pin until RemoveJob), so
  // blocking forever would deadlock the job against itself: force the
  // put through. Overshoot is bounded by one payload per writer.
  return w->Put(key, std::move(buffer), expected_reads, /*force=*/true);
}

ShuffleKind ShuffleService::KindFor(int64_t shuffle_edge_size) const {
  if (config_.force_kind.has_value()) return *config_.force_kind;
  return SelectShuffleKind(shuffle_edge_size);
}

int64_t ShuffleService::TaskEndpoint(const ShuffleSlotKey& key,
                                     bool writer) const {
  // Stable id per (job, stage, task) endpoint; writers and readers of
  // the same stage share the task's single endpoint.
  const StageId stage = writer ? key.src_stage : key.dst_stage;
  const int task = writer ? key.src_task : key.dst_task;
  return (static_cast<int64_t>(key.job) << 40) ^
         (static_cast<int64_t>(stage) << 24) ^ (static_cast<int64_t>(task) + 1);
}

int64_t ShuffleService::WorkerEndpoint(int machine) const {
  return -(static_cast<int64_t>(machine) + 1);  // negative = cache worker
}

void ShuffleService::Connect(int64_t from, int64_t to, ShuffleKind kind) {
  if (from == to) return;
  if (from > to) std::swap(from, to);
  if (connections_.insert({from, to}).second) {
    stats_.tcp_connections += 1;
    obs::Add(metrics_.connections[static_cast<std::size_t>(kind)]);
  }
}

ShuffleService::DirectMap::iterator ShuffleService::EraseDirectLocked(
    DirectMap::iterator it) {
  if (!it->second.touched) {
    obs::Add(metrics_.bytes_evicted_unconsumed,
             static_cast<int64_t>(it->second.buffer.size()));
  }
  return direct_.erase(it);
}

Result<ShuffleBuffer> ShuffleService::CountRead(ShuffleKind kind,
                                                Result<ShuffleBuffer> buffer) {
  if (buffer.ok()) {
    obs::Add(metrics_.bytes_read[static_cast<std::size_t>(kind)],
             static_cast<int64_t>(buffer->size()));
  }
  return buffer;
}

ShuffleBuffer ShuffleService::MaybeCompress(ShuffleKind kind, bool pipelined,
                                            ShuffleBuffer buffer) {
  // Per-edge negotiation: compression pays on barrier edges (Remote
  // always; Local when the reader pulls later), never on Direct hops or
  // pipeline pushes where the bytes are consumed immediately, and never
  // on payloads too small to amortize the frame. Payloads that are
  // already framed (a task re-writing fetched bytes) pass through.
  const bool barrier_edge =
      kind == ShuffleKind::kRemote ||
      (kind == ShuffleKind::kLocal && !pipelined);
  if (!config_.compression || !barrier_edge ||
      static_cast<int64_t>(buffer.size()) < kCompressMinBytes ||
      IsCompressedFrame(buffer.view())) {
    return buffer;
  }
  std::string frame = CompressFrame(buffer.view());
  if (frame.size() >= buffer.size()) {
    // Incompressible: ship the plain payload, not a bigger frame.
    std::lock_guard<std::mutex> lock(mu_);
    stats_.compress_skipped += 1;
    obs::Add(metrics_.compress_skipped);
    return buffer;
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.compressed_writes += 1;
  stats_.compress_bytes_in += static_cast<int64_t>(buffer.size());
  stats_.compress_bytes_out += static_cast<int64_t>(frame.size());
  obs::Add(metrics_.compressed_writes);
  obs::Add(metrics_.compress_bytes_in, static_cast<int64_t>(buffer.size()));
  obs::Add(metrics_.compress_bytes_out, static_cast<int64_t>(frame.size()));
  return ShuffleBuffer(std::move(frame));
}

void ShuffleService::PlaceReplicas(const ShuffleSlotKey& key,
                                   const ShuffleBuffer& buffer,
                                   int writer_machine) {
  if (config_.replica_fanout <= 1 || !config_.retain_for_recovery) return;
  const int want = std::min(config_.replica_fanout - 1, machines() - 1);
  if (want <= 0) return;
  // Least-loaded live workers first: a hot worker (resident bytes +
  // spill backlog) is both slower to admit the replica and the most
  // likely to evict it, so fan out to where the capacity actually is.
  std::vector<ShuffleWorkerLoad> load = per_worker_load();
  std::stable_sort(load.begin(), load.end(),
                   [](const ShuffleWorkerLoad& a, const ShuffleWorkerLoad& b) {
                     return a.resident_bytes + a.spill_disk_bytes <
                            b.resident_bytes + b.spill_disk_bytes;
                   });
  std::vector<int> targets;
  for (const ShuffleWorkerLoad& l : load) {
    if (static_cast<int>(targets.size()) >= want) break;
    if (l.machine == writer_machine || l.dead) continue;
    targets.push_back(l.machine);
  }
  for (int m : targets) {
    // Best-effort and un-forced: a worker over its watermark simply
    // skips the replica (same admission discipline as the reader-side
    // Local replicas); the shared allocation means no bytes are copied.
    if (workers_[static_cast<std::size_t>(m)]
            ->Put(key, buffer, /*expected_reads=*/0)
            .ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.replica_writes += 1;
      obs::Add(metrics_.replica_writes);
    }
  }
}

Status ShuffleService::WritePartition(ShuffleKind kind,
                                      const ShuffleSlotKey& key,
                                      ShuffleBuffer buffer,
                                      int writer_machine, bool pipelined) {
  const int expected_reads = config_.retain_for_recovery ? 0 : 1;
  buffer = MaybeCompress(kind, pipelined, std::move(buffer));
  const int64_t size = static_cast<int64_t>(buffer.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (IsMachineDeadLocked(writer_machine)) {
      return Status::MachineUnhealthy(StrFormat(
          "cannot write %s: machine %d is down", key.ToString().c_str(),
          writer_machine));
    }
    stats_.bytes_transferred += size;
    stats_.modeled_memory_copies += ExtraMemoryCopies(kind);
    obs::Add(metrics_.bytes_written[static_cast<std::size_t>(kind)], size);
    if (kind == ShuffleKind::kDirect) {
      Connect(TaskEndpoint(key, true), TaskEndpoint(key, false), kind);
      stats_.direct_writes += 1;
      obs::Add(metrics_.bytes_written_total, size);
      // An overwrite of an unread slot drops its bytes.
      auto old = direct_.find(key);
      if (old != direct_.end()) EraseDirectLocked(old);
      direct_.emplace(key, DirectSlot{std::move(buffer), writer_machine});
      return Status::OK();
    }
    Connect(TaskEndpoint(key, true), WorkerEndpoint(writer_machine), kind);
    int64_t& writes = kind == ShuffleKind::kLocal ? stats_.local_writes
                                                  : stats_.remote_writes;
    writes += 1;
  }
  // A Local pipeline edge's writer-side worker forwards immediately; we
  // model this by parking the data on the writer's worker either way —
  // the read path replicates the shared allocation onto the reader-side
  // worker, so the bytes still only exist once.
  Status st = PutWithFlowControl(writer_machine, key, buffer, expected_reads);
  if (st.ok()) PlaceReplicas(key, buffer, writer_machine);
  return st;
}

Result<ShuffleBuffer> ShuffleService::ReadPartition(ShuffleKind kind,
                                                    const ShuffleSlotKey& key,
                                                    int reader_machine,
                                                    int writer_machine) {
  for (int attempt = 0;; ++attempt) {
    const ReadFault fault = injector_ != nullptr
                                ? injector_->OnShuffleRead(key, attempt)
                                : ReadFault::kNone;
    const bool last_attempt = attempt + 1 >= kMaxReadAttempts;
    if (fault == ReadFault::kTimeout) {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.read_timeouts += 1;
      obs::Add(metrics_.read_timeouts);
      if (last_attempt) {
        return Status::Timeout(StrFormat(
            "shuffle read %s timed out %d times, giving up",
            key.ToString().c_str(), attempt + 1));
      }
    } else {
      Result<ShuffleBuffer> buffer =
          ReadPartitionOnce(kind, key, reader_machine, writer_machine);
      if (fault != ReadFault::kNone) {  // kCorrupt or kFrameCorrupt
        if (!buffer.ok()) return buffer;
        std::lock_guard<std::mutex> lock(mu_);
        stats_.corrupt_payloads += 1;
        obs::Add(metrics_.corrupt_payloads);
        return CorruptCopy(*buffer, fault);
      }
      // Transient-looking errors (spill IO) retry in place; NotFound is
      // permanent loss and escalates to recovery immediately.
      if (buffer.ok() || buffer.status().code() != StatusCode::kIOError ||
          last_attempt) {
        return buffer;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.read_retries += 1;
      obs::Add(metrics_.read_retries);
    }
    const double ms =
        std::min(kReadBackoffMaxMs,
                 kReadBackoffBaseMs * static_cast<double>(1 << attempt));
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(ms * 1000.0)));
  }
}

Result<ShuffleBuffer> ShuffleService::PeekAnyReplica(const ShuffleSlotKey& key,
                                                     int writer_machine) {
  // Writer-side copy first (the normal home of the data), then any
  // surviving replica left behind by earlier Local reads.
  if (!IsMachineDead(writer_machine)) {
    Result<ShuffleBuffer> buffer =
        workers_[static_cast<std::size_t>(writer_machine)]->Peek(key);
    if (buffer.ok()) return buffer;
  }
  for (int m = 0; m < machines(); ++m) {
    if (m == writer_machine || IsMachineDead(m)) continue;
    CacheWorker* w = workers_[static_cast<std::size_t>(m)].get();
    if (!w->Contains(key)) continue;
    Result<ShuffleBuffer> buffer = w->Peek(key);
    if (buffer.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.failover_reads += 1;
      obs::Add(metrics_.failover_reads);
      return buffer;
    }
  }
  return Status::NotFound(StrFormat(
      "partition %s lost: no live Cache Worker holds a copy",
      key.ToString().c_str()));
}

Result<ShuffleBuffer> ShuffleService::ReadPartitionOnce(
    ShuffleKind kind, const ShuffleSlotKey& key, int reader_machine,
    int writer_machine) {
  switch (kind) {
    case ShuffleKind::kDirect: {
      Result<ShuffleBuffer> buffer = ShuffleBuffer();
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = direct_.find(key);
        if (it == direct_.end()) {
          return Status::NotFound("direct shuffle slot " + key.ToString());
        }
        stats_.reads += 1;
        DirectSlot& slot = it->second;
        if (!slot.touched) {
          slot.touched = true;
          obs::Add(metrics_.bytes_consumed,
                   static_cast<int64_t>(slot.buffer.size()));
        }
        if (config_.retain_for_recovery) {
          buffer = slot.buffer;  // shared handle, not a payload copy
        } else {
          buffer = std::move(slot.buffer);
          direct_.erase(it);
        }
      }
      return CountRead(kind, std::move(buffer));
    }
    case ShuffleKind::kLocal: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        Connect(WorkerEndpoint(writer_machine), WorkerEndpoint(reader_machine),
                kind);
        Connect(TaskEndpoint(key, false), WorkerEndpoint(reader_machine), kind);
        stats_.reads += 1;
      }
      CacheWorker* src = workers_[static_cast<std::size_t>(writer_machine)].get();
      if (!config_.retain_for_recovery) {
        return CountRead(kind, src->Get(key));
      }
      CacheWorker* dst = workers_[static_cast<std::size_t>(reader_machine)].get();
      if (dst != src && !IsMachineDead(reader_machine) && dst->Contains(key)) {
        // Served from the reader-side replica created below.
        return CountRead(kind, dst->Peek(key));
      }
      Result<ShuffleBuffer> buffer = PeekAnyReplica(key, writer_machine);
      if (buffer.ok() && dst != src && !IsMachineDead(reader_machine)) {
        // Replicate the shared allocation onto the reader-side worker
        // (the paper's worker-to-worker push): later readers on this
        // machine stay local, and not a byte is copied. Best-effort —
        // an over-budget reader-side worker just skips the replica.
        if (dst->Put(key, *buffer, /*expected_reads=*/0).ok()) {
          std::lock_guard<std::mutex> lock(mu_);
          stats_.local_replicas += 1;
          obs::Add(metrics_.local_replicas);
        }
      }
      return CountRead(kind, std::move(buffer));
    }
    case ShuffleKind::kRemote: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        Connect(TaskEndpoint(key, false), WorkerEndpoint(writer_machine), kind);
        stats_.reads += 1;
      }
      CacheWorker* src = workers_[static_cast<std::size_t>(writer_machine)].get();
      if (!config_.retain_for_recovery) {
        return CountRead(kind, src->Get(key));
      }
      return CountRead(kind, PeekAnyReplica(key, writer_machine));
    }
  }
  return Status::Internal("unknown shuffle kind");
}

bool ShuffleService::HasPartition(ShuffleKind kind, const ShuffleSlotKey& key,
                                  int writer_machine) {
  if (kind == ShuffleKind::kDirect) {
    std::lock_guard<std::mutex> lock(mu_);
    return direct_.count(key) > 0;
  }
  return workers_[static_cast<std::size_t>(writer_machine)]->Contains(key);
}

void ShuffleService::RemoveJob(JobId job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = direct_.begin(); it != direct_.end();) {
      it = it->first.job == job ? EraseDirectLocked(it) : std::next(it);
    }
  }
  for (auto& w : workers_) w->RemoveJob(job);
}

void ShuffleService::RemoveStageOutput(JobId job, StageId stage) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = direct_.begin(); it != direct_.end();) {
      it = it->first.job == job && it->first.src_stage == stage
               ? EraseDirectLocked(it)
               : std::next(it);
    }
  }
  for (auto& w : workers_) w->RemoveStageOutput(job, stage);
}

bool ShuffleService::PartitionAvailable(ShuffleKind kind,
                                        const ShuffleSlotKey& key) {
  if (kind == ShuffleKind::kDirect) {
    std::lock_guard<std::mutex> lock(mu_);
    return direct_.count(key) > 0;
  }
  for (int m = 0; m < machines(); ++m) {
    if (IsMachineDead(m)) continue;
    if (workers_[static_cast<std::size_t>(m)]->Contains(key)) return true;
  }
  return false;
}

void ShuffleService::FailMachine(int machine) {
  if (machine < 0 || machine >= machines()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!dead_.insert(machine).second) return;
    stats_.machine_failures += 1;
    obs::Add(metrics_.machine_failures);
    // Direct slots live in the producing task's process, so they die
    // with the machine too.
    for (auto it = direct_.begin(); it != direct_.end();) {
      it = it->second.writer == machine ? EraseDirectLocked(it) : std::next(it);
    }
  }
  workers_[static_cast<std::size_t>(machine)]->Clear();
}

void ShuffleService::RestoreMachine(int machine) {
  if (machine < 0 || machine >= machines()) return;
  std::lock_guard<std::mutex> lock(mu_);
  dead_.erase(machine);
}

bool ShuffleService::IsMachineDead(int machine) {
  std::lock_guard<std::mutex> lock(mu_);
  return IsMachineDeadLocked(machine);
}

ShuffleServiceStats ShuffleService::stats() {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

CacheWorkerStats ShuffleService::worker_stats() {
  CacheWorkerStats total;
  for (auto& w : workers_) total += w->stats();
  return total;
}

std::vector<ShuffleWorkerLoad> ShuffleService::per_worker_load() {
  std::vector<ShuffleWorkerLoad> load;
  load.reserve(workers_.size());
  for (int m = 0; m < machines(); ++m) {
    const CacheWorkerStats s = workers_[static_cast<std::size_t>(m)]->stats();
    ShuffleWorkerLoad l;
    l.machine = m;
    l.dead = IsMachineDead(m);
    l.resident_bytes = s.memory_in_use;
    l.spill_disk_bytes = s.spill_disk_in_use;
    if (!metrics_.worker_resident.empty()) {
      obs::Set(metrics_.worker_resident[static_cast<std::size_t>(m)],
               l.resident_bytes);
      obs::Set(metrics_.worker_spill_disk[static_cast<std::size_t>(m)],
               l.spill_disk_bytes);
    }
    load.push_back(l);
  }
  return load;
}

}  // namespace swift
