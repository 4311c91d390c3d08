#include "shuffle/cache_worker.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/compress.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "fault/fault_injector.h"

namespace swift {

namespace {

// Spill files end in a 4-byte little-endian CRC-32C of the payload,
// verified on reload: disk corruption surfaces as data loss (recovery
// re-runs the producer), never as silently wrong query results.
constexpr int64_t kSpillFooterBytes = 4;

void EncodeFooter(uint32_t crc, char out[4]) {
  out[0] = static_cast<char>(crc & 0xFF);
  out[1] = static_cast<char>((crc >> 8) & 0xFF);
  out[2] = static_cast<char>((crc >> 16) & 0xFF);
  out[3] = static_cast<char>((crc >> 24) & 0xFF);
}

uint32_t DecodeFooter(const char in[4]) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[3])) << 24);
}

int64_t WatermarkBytes(int64_t budget, double fraction) {
  return static_cast<int64_t>(static_cast<double>(budget) * fraction);
}

}  // namespace

std::string ShuffleSlotKey::ToString() const {
  return StrFormat("job%lld.s%d.t%d->s%d.t%d", static_cast<long long>(job),
                   src_stage, src_task, dst_stage, dst_task);
}

CacheWorker::CacheWorker(CacheWorkerOptions options)
    : options_(std::move(options)),
      soft_bytes_(
          WatermarkBytes(options_.memory_budget_bytes, kCacheSoftWatermark)),
      hard_bytes_(options_.memory_budget_bytes),
      job_quota_bytes_(
          WatermarkBytes(options_.memory_budget_bytes, kCachePerJobQuota)) {
  if (!options_.spill_dir.empty()) {
    // A private directory per worker: spill file names come from a
    // per-worker counter, so workers sharing spill_dir must not share
    // the directory the files land in. If it cannot be created, spills
    // target spill_dir itself and fail there as ordinary spill IO errors.
    std::error_code ec;
    std::filesystem::create_directories(options_.spill_dir, ec);
    std::string tmpl = options_.spill_dir + "/cw_XXXXXX";
    spill_path_ = mkdtemp(tmpl.data()) != nullptr ? tmpl : options_.spill_dir;
  }
  obs::MetricsRegistry* metrics = options_.metrics;
  if (metrics != nullptr) {
    metrics_.puts = metrics->counter("cache.puts");
    metrics_.gets = metrics->counter("cache.gets");
    metrics_.bytes_read = metrics->counter("cache.bytes_read");
    metrics_.bytes_written = metrics->counter("shuffle.bytes_written");
    metrics_.bytes_consumed = metrics->counter("shuffle.bytes_consumed");
    metrics_.bytes_evicted_unconsumed =
        metrics->counter("shuffle.bytes_evicted_unconsumed");
    metrics_.spill_slots = metrics->counter("cache.spill.slots");
    metrics_.spill_bytes = metrics->counter("cache.spill.bytes");
    metrics_.spill_stored_bytes = metrics->counter("cache.spill.stored_bytes");
    metrics_.reloads = metrics->counter("cache.reloads");
    metrics_.deletions = metrics->counter("cache.deletions");
    metrics_.backpressure_rejections =
        metrics->counter("shuffle.backpressure.rejections");
    metrics_.backpressure_rejected_bytes =
        metrics->counter("shuffle.backpressure.rejected_bytes");
    metrics_.backpressure_forced_admits =
        metrics->counter("shuffle.backpressure.forced_admits");
    metrics_.quota_evictions = metrics->counter("shuffle.quota.evictions");
    metrics_.spill_io_errors = metrics->counter("shuffle.spill.io_errors");
    metrics_.spill_retries = metrics->counter("shuffle.spill.retries");
    metrics_.spill_lost_slots = metrics->counter("shuffle.spill.lost_slots");
  }
}

CacheWorker::~CacheWorker() {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  if (spill_path_ != options_.spill_dir) {
    std::filesystem::remove_all(spill_path_, ec);
    return;
  }
  for (auto& [key, slot] : slots_) {
    if (slot.spilled && !slot.spill_path.empty()) {
      std::filesystem::remove(slot.spill_path, ec);
    }
  }
}

void CacheWorker::set_fault_injector(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
}

Status CacheWorker::Put(const ShuffleSlotKey& key, ShuffleBuffer buffer,
                        int expected_reads, bool force) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t size = static_cast<int64_t>(buffer.size());
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    // Overwrite (idempotent re-run re-sends the same partition).
    EraseLocked(key);
  }
  Status admit = EnsureCapacityLocked(
      size, key.job, force ? AdmitMode::kForced : AdmitMode::kPut);
  if (!admit.ok()) {
    if (admit.IsBackpressure()) {
      stats_.backpressure_rejections += 1;
      stats_.bytes_rejected += size;
      obs::Add(metrics_.backpressure_rejections);
      obs::Add(metrics_.backpressure_rejected_bytes, size);
    }
    return admit;
  }
  if (force && stats_.memory_in_use + size > hard_bytes_) {
    stats_.forced_admits += 1;
    obs::Add(metrics_.backpressure_forced_admits);
  }
  Slot slot;
  slot.buffer = std::move(buffer);
  slot.size = size;
  slot.expected_reads = expected_reads;
  auto [ins, ok] = slots_.emplace(key, std::move(slot));
  (void)ok;
  TouchLocked(key, &ins->second);
  stats_.puts += 1;
  stats_.bytes_written += size;
  stats_.memory_in_use += size;
  ChargeJobLocked(key.job, size);
  NoteResidentGrewLocked();
  obs::Add(metrics_.puts);
  obs::Add(metrics_.bytes_written, size);
  return Status::OK();
}

bool CacheWorker::WaitForCapacity(int64_t bytes, double timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (bytes > hard_bytes_) return false;  // can never fit: don't spin
  auto fits = [&] { return stats_.memory_in_use + bytes <= hard_bytes_; };
  if (fits()) return true;
  return drain_cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms), fits);
}

Result<ShuffleBuffer> CacheWorker::Get(const ShuffleSlotKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end()) {
    return Status::NotFound("shuffle slot " + key.ToString());
  }
  Result<ShuffleBuffer> loaded = LoadLocked(key, &it->second);
  if (!loaded.ok()) {
    if (it->second.spilled) {
      // Permanently unreadable spill file: the data is gone. Drop the
      // slot so retries observe NotFound and escalate to replica
      // failover / producer re-run instead of hammering a dead file.
      stats_.spill_lost_slots += 1;
      obs::Add(metrics_.spill_lost_slots);
      EraseLocked(key);
    }
    return loaded.status();
  }
  ShuffleBuffer buffer = *std::move(loaded);
  stats_.gets += 1;
  stats_.bytes_read += static_cast<int64_t>(buffer.size());
  obs::Add(metrics_.gets);
  obs::Add(metrics_.bytes_read, static_cast<int64_t>(buffer.size()));
  MarkConsumedLocked(&it->second);
  it->second.reads += 1;
  if (it->second.expected_reads > 0 &&
      it->second.reads >= it->second.expected_reads) {
    EraseLocked(key);
    stats_.deletions += 1;
    obs::Add(metrics_.deletions);
  } else {
    TouchLocked(key, &it->second);
  }
  return buffer;
}

Result<ShuffleBuffer> CacheWorker::Peek(const ShuffleSlotKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end()) {
    return Status::NotFound("shuffle slot " + key.ToString());
  }
  Result<ShuffleBuffer> loaded = LoadLocked(key, &it->second);
  if (!loaded.ok()) {
    if (it->second.spilled) {
      stats_.spill_lost_slots += 1;
      obs::Add(metrics_.spill_lost_slots);
      EraseLocked(key);
    }
    return loaded.status();
  }
  ShuffleBuffer buffer = *std::move(loaded);
  stats_.gets += 1;
  stats_.bytes_read += static_cast<int64_t>(buffer.size());
  obs::Add(metrics_.gets);
  obs::Add(metrics_.bytes_read, static_cast<int64_t>(buffer.size()));
  MarkConsumedLocked(&it->second);
  TouchLocked(key, &it->second);
  return buffer;
}

bool CacheWorker::Contains(const ShuffleSlotKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.count(key) > 0;
}

void CacheWorker::RemoveJob(JobId job) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->first.job == job) {
      auto next = std::next(it);
      EraseLocked(it->first);
      it = next;
    } else {
      ++it;
    }
  }
  // EraseLocked has already drained the per-slot charges; dropping the
  // entry reclaims the job's quota in the same critical section.
  job_resident_.erase(job);
}

void CacheWorker::RemoveStageOutput(JobId job, StageId stage) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->first.job == job && it->first.src_stage == stage) {
      auto next = std::next(it);
      EraseLocked(it->first);
      it = next;
    } else {
      ++it;
    }
  }
}

void CacheWorker::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = slots_.begin(); it != slots_.end();) {
    auto next = std::next(it);
    EraseLocked(it->first);
    it = next;
  }
  job_resident_.clear();
  spill_disk_full_ = false;  // the machine's disk dies (and heals) with it
}

CacheWorkerStats CacheWorker::stats() {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status CacheWorker::EnsureCapacityLocked(int64_t incoming, JobId job,
                                         AdmitMode mode) {
  (void)job;
  // Spill LRU victims until resident bytes sit back under the soft
  // watermark (spill-ahead keeps headroom between soft and hard for
  // bursts). A victim whose spill hits a transient IO error rotates to
  // MRU so the next iteration tries a different slot; spilling stops
  // outright when it cannot help (disabled, disk full).
  size_t failed_attempts = 0;
  const size_t max_failed_attempts = lru_.size() + 1;
  while (stats_.memory_in_use + incoming > soft_bytes_ &&
         failed_attempts < max_failed_attempts) {
    ShuffleSlotKey victim_key;
    bool quota_preferred = false;
    Slot* victim = PickVictimLocked(&victim_key, &quota_preferred);
    if (victim == nullptr) break;
    Status st = SpillLocked(victim_key, victim);
    if (st.ok()) {
      if (quota_preferred) {
        stats_.quota_evictions += 1;
        obs::Add(metrics_.quota_evictions);
      }
      continue;
    }
    failed_attempts += 1;
    if (st.code() == StatusCode::kIOError) {
      TouchLocked(victim_key, victim);  // rotate past the sick victim
      continue;
    }
    break;  // spilling disabled or disk full: no victim will do better
  }
  if (stats_.memory_in_use + incoming <= hard_bytes_) return Status::OK();
  // Over the hard watermark and spilling could not fix it.
  if (mode == AdmitMode::kForced || mode == AdmitMode::kReload) {
    // Forced puts (deadlock guard) and spill reloads (the drain side)
    // always make progress; the overshoot is bounded by one payload.
    return Status::OK();
  }
  if (lru_.empty() && SpillCapableLocked(incoming)) {
    // Everything resident is already spilled and the spill path works:
    // an oversized payload is admitted rather than stalled forever (it
    // becomes the next spill victim).
    return Status::OK();
  }
  return Status::Backpressure(
      StrFormat("cache worker over hard watermark (%lld + %lld > %lld)",
                static_cast<long long>(stats_.memory_in_use),
                static_cast<long long>(incoming),
                static_cast<long long>(hard_bytes_)));
}

CacheWorker::Slot* CacheWorker::PickVictimLocked(ShuffleSlotKey* out_key,
                                                 bool* quota_preferred) {
  *quota_preferred = false;
  if (lru_.empty()) return nullptr;
  if (job_quota_bytes_ > 0) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (!OverQuotaLocked(it->job)) continue;
      auto sit = slots_.find(*it);
      if (sit == slots_.end()) continue;
      *quota_preferred = it != lru_.begin();
      *out_key = *it;
      return &sit->second;
    }
  }
  auto sit = slots_.find(lru_.front());
  if (sit == slots_.end()) {
    lru_.pop_front();
    return nullptr;
  }
  *out_key = lru_.front();
  return &sit->second;
}

Status CacheWorker::SpillLocked(const ShuffleSlotKey& key, Slot* slot) {
  if (options_.spill_dir.empty()) {
    return Status::ResourceExhausted("cache worker memory over budget and "
                                     "spilling disabled");
  }
  if (slot->spilled) return Status::OK();
  // Compress before the budget check so the disk charge is the stored
  // (compressed) size — compression effectively stretches the spill
  // budget. Payloads already framed by the shuffle writer stay as-is.
  std::string compressed;
  bool spill_compressed = false;
  if (options_.spill_compression && slot->size >= kCompressMinBytes &&
      !IsCompressedFrame(slot->buffer.view())) {
    compressed = CompressFrame(slot->buffer.view());
    spill_compressed =
        compressed.size() < static_cast<std::size_t>(slot->size);
  }
  const std::string_view bytes =
      spill_compressed ? std::string_view(compressed) : slot->buffer.view();
  const auto stored_size = static_cast<int64_t>(bytes.size());
  const int64_t disk_cost = stored_size + kSpillFooterBytes;
  if (!SpillCapableLocked(stored_size)) {
    return Status::ResourceExhausted(
        StrFormat("spill disk budget exhausted (%lld + %lld > %lld)",
                  static_cast<long long>(stats_.spill_disk_in_use),
                  static_cast<long long>(disk_cost),
                  static_cast<long long>(options_.spill_disk_budget_bytes)));
  }
  const std::string path = StrFormat(
      "%s/slot_%lld.bin", spill_path_.c_str(),
      static_cast<long long>(spill_seq_++));
  char footer[4];
  EncodeFooter(Crc32(bytes), footer);
  Status last;
  bool written = false;
  for (int attempt = 0; attempt <= kSpillIoRetries; ++attempt) {
    SpillFault fault = injector_ != nullptr
                           ? injector_->OnSpillWrite(key, attempt, slot->size)
                           : SpillFault::kNone;
    if (fault == SpillFault::kDiskFull) {
      spill_disk_full_ = true;
      return Status::ResourceExhausted("spill dir full: " + path);
    }
    if (fault == SpillFault::kWriteError) {
      last = Status::IOError("injected spill write error: " + path);
    } else {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (out.good()) {
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.write(footer, sizeof(footer));
        out.close();
      }
      if (out.good()) {
        written = true;
        break;
      }
      last = Status::IOError("cannot write spill file " + path);
    }
    stats_.spill_io_errors += 1;
    obs::Add(metrics_.spill_io_errors);
    if (attempt < kSpillIoRetries) {
      stats_.spill_io_retries += 1;
      obs::Add(metrics_.spill_retries);
    }
  }
  if (!written) return last;
  stats_.spilled_slots += 1;
  stats_.spilled_bytes += slot->size;
  stats_.spill_stored_bytes += stored_size;
  if (spill_compressed) stats_.spill_compressed_slots += 1;
  stats_.memory_in_use -= slot->size;
  stats_.spill_disk_in_use += disk_cost;
  ChargeJobLocked(key.job, -slot->size);
  obs::Add(metrics_.spill_slots);
  obs::Add(metrics_.spill_bytes, slot->size);
  obs::Add(metrics_.spill_stored_bytes, stored_size);
  // Drop this worker's reference; the allocation is freed once the last
  // sharer (an in-flight reader, another worker's replica) lets go —
  // budget accounting charges resident slots, not shared lifetimes.
  slot->buffer = ShuffleBuffer();
  slot->spilled = true;
  slot->spill_path = path;
  slot->stored_size = stored_size;
  slot->spill_compressed = spill_compressed;
  if (slot->in_lru) {
    lru_.erase(slot->lru_it);
    slot->in_lru = false;
  }
  NoteResidentShrankLocked();
  return Status::OK();
}

Result<ShuffleBuffer> CacheWorker::LoadLocked(const ShuffleSlotKey& key,
                                              Slot* slot) {
  if (!slot->spilled) return slot->buffer;
  Status last;
  std::string bytes;
  bool loaded = false;
  for (int attempt = 0; attempt <= kSpillIoRetries; ++attempt) {
    SpillFault fault = injector_ != nullptr
                           ? injector_->OnSpillRead(key, attempt)
                           : SpillFault::kNone;
    if (fault == SpillFault::kReadError) {
      last = Status::IOError("injected spill read error: " + slot->spill_path);
    } else if (fault == SpillFault::kShortRead) {
      last = Status::IOError("injected short read: " + slot->spill_path);
    } else {
      std::ifstream in(slot->spill_path, std::ios::binary);
      if (!in.good()) {
        last = Status::IOError("cannot open spill file " + slot->spill_path);
      } else {
        bytes.assign(static_cast<std::size_t>(slot->stored_size), '\0');
        char footer[4] = {0, 0, 0, 0};
        in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        const bool payload_ok =
            in.gcount() == static_cast<std::streamsize>(bytes.size());
        in.read(footer, sizeof(footer));
        const bool footer_ok =
            payload_ok && in.gcount() == static_cast<std::streamsize>(4);
        if (!footer_ok) {
          last = Status::IOError("short read from spill file " +
                                 slot->spill_path);
        } else if (DecodeFooter(footer) != Crc32(bytes)) {
          // Re-reading returns the same rotten bytes: permanent.
          stats_.spill_io_errors += 1;
          obs::Add(metrics_.spill_io_errors);
          return Status::IOError("spill file CRC mismatch: " +
                                 slot->spill_path);
        } else if (slot->spill_compressed) {
          // The footer CRC (over the stored frame) already passed, so a
          // decode failure here cannot be disk rot — but fail closed and
          // permanently either way rather than hand out wrong bytes.
          Result<std::string> raw = DecompressFrame(bytes);
          if (!raw.ok() ||
              raw->size() != static_cast<std::size_t>(slot->size)) {
            stats_.spill_io_errors += 1;
            obs::Add(metrics_.spill_io_errors);
            return Status::IOError("spill frame decode failed: " +
                                   slot->spill_path);
          }
          bytes = std::move(*raw);
          loaded = true;
          break;
        } else {
          loaded = true;
          break;
        }
      }
    }
    stats_.spill_io_errors += 1;
    obs::Add(metrics_.spill_io_errors);
    if (attempt < kSpillIoRetries) {
      stats_.spill_io_retries += 1;
      obs::Add(metrics_.spill_retries);
    }
  }
  if (!loaded) return last;
  stats_.reloads += 1;
  obs::Add(metrics_.reloads);
  // Re-admit into memory (it is being used again). Reload admission
  // never fails: the reader draining this slot is what relieves
  // pressure, so it may overshoot the watermark by one payload.
  Status st = EnsureCapacityLocked(slot->size, key.job, AdmitMode::kReload);
  (void)st;
  std::error_code ec;
  std::filesystem::remove(slot->spill_path, ec);
  stats_.spill_disk_in_use -= slot->stored_size + kSpillFooterBytes;
  slot->spilled = false;
  slot->spill_path.clear();
  slot->stored_size = 0;
  slot->spill_compressed = false;
  slot->buffer = ShuffleBuffer(std::move(bytes));
  stats_.memory_in_use += slot->size;
  ChargeJobLocked(key.job, slot->size);
  NoteResidentGrewLocked();
  TouchLocked(key, slot);
  return slot->buffer;
}

void CacheWorker::MarkConsumedLocked(Slot* slot) {
  if (slot->touched) return;
  slot->touched = true;
  stats_.bytes_consumed += slot->size;
  obs::Add(metrics_.bytes_consumed, slot->size);
}

void CacheWorker::EraseLocked(const ShuffleSlotKey& key) {
  auto it = slots_.find(key);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (!slot.touched) {
    stats_.bytes_evicted_unconsumed += slot.size;
    obs::Add(metrics_.bytes_evicted_unconsumed, slot.size);
  }
  if (slot.in_lru) lru_.erase(slot.lru_it);
  if (slot.spilled) {
    std::error_code ec;
    std::filesystem::remove(slot.spill_path, ec);
    stats_.spill_disk_in_use -= slot.stored_size + kSpillFooterBytes;
  } else {
    stats_.memory_in_use -= slot.size;
    ChargeJobLocked(key.job, -slot.size);
    NoteResidentShrankLocked();
  }
  slots_.erase(it);
}

void CacheWorker::TouchLocked(const ShuffleSlotKey& key, Slot* slot) {
  if (slot->spilled) return;
  if (slot->in_lru) lru_.erase(slot->lru_it);
  lru_.push_back(key);
  slot->lru_it = std::prev(lru_.end());
  slot->in_lru = true;
}

void CacheWorker::ChargeJobLocked(JobId job, int64_t delta) {
  int64_t& bytes = job_resident_[job];
  bytes += delta;
  if (bytes <= 0) job_resident_.erase(job);
}

bool CacheWorker::OverQuotaLocked(JobId job) const {
  if (job_quota_bytes_ <= 0) return false;
  auto it = job_resident_.find(job);
  return it != job_resident_.end() && it->second > job_quota_bytes_;
}

bool CacheWorker::SpillCapableLocked(int64_t bytes) const {
  if (options_.spill_dir.empty() || spill_disk_full_) return false;
  if (options_.spill_disk_budget_bytes <= 0) return true;
  return stats_.spill_disk_in_use + bytes + kSpillFooterBytes <=
         options_.spill_disk_budget_bytes;
}

void CacheWorker::NoteResidentGrewLocked() {
  stats_.peak_memory_in_use =
      std::max(stats_.peak_memory_in_use, stats_.memory_in_use);
}

void CacheWorker::NoteResidentShrankLocked() { drain_cv_.notify_all(); }

}  // namespace swift
