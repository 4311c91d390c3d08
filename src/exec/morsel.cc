#include "exec/morsel.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <utility>

#include "common/macros.h"

namespace swift {
namespace {

// ---- Morselized sources ---------------------------------------------

// Scan cursor over a table's task-slice bounds: each call slices the
// next <= morsel_rows rows of the columns the stage reads out of the
// store, so no full-slice ColumnBatch ever exists and peak resident
// rows on pipeline-only trees is O(morsel).
class TableMorselSource final : public PhysicalOperator {
 public:
  TableMorselSource(std::shared_ptr<const Table> table, int task_index,
                    int task_count, Schema schema, std::size_t morsel_rows,
                    std::vector<std::size_t> columns)
      : table_(std::move(table)),
        morsel_rows_(morsel_rows == 0 ? kDefaultMorselRows : morsel_rows),
        columns_(std::move(columns)) {
    output_schema_ = std::move(schema);
    if (columns_.empty()) {
      for (std::size_t c = 0; c < output_schema_.num_fields(); ++c) {
        columns_.push_back(c);
      }
    }
    const auto bounds = table_->TaskSliceBounds(task_index, task_count);
    cursor_ = bounds.first;
    end_ = bounds.second;
  }

  Status Open() override { return Status::OK(); }

  Result<std::optional<ColumnBatch>> Next() override {
    if (cursor_ >= end_) return std::optional<ColumnBatch>();
    const std::size_t take = std::min(morsel_rows_, end_ - cursor_);
    ColumnBatch out;
    out.schema = output_schema_;
    out.physical_rows = take;
    out.columns.reserve(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      ColumnVector col = ColumnVector::OfType(output_schema_.field(c).type);
      col.AppendRangeFrom(table_->column(columns_[c]), cursor_, take);
      out.columns.push_back(std::move(col));
    }
    cursor_ += take;
    return std::optional<ColumnBatch>(std::move(out));
  }

 private:
  std::shared_ptr<const Table> table_;
  std::size_t morsel_rows_;
  std::vector<std::size_t> columns_;
  std::size_t cursor_ = 0;
  std::size_t end_ = 0;
};

// Decodes validated shuffle payloads into <= morsel_rows dense morsels,
// releasing each payload after its last morsel.
class WireMorselSource final : public PhysicalOperator {
 public:
  WireMorselSource(Schema schema, std::vector<WirePayload> payloads,
                   std::size_t morsel_rows)
      : payloads_(std::move(payloads)),
        morsel_rows_(morsel_rows == 0 ? kDefaultMorselRows : morsel_rows) {
    output_schema_ = std::move(schema);
  }

  Status Open() override { return Status::OK(); }

  Result<std::optional<ColumnBatch>> Next() override {
    for (; idx_ < payloads_.size(); ++idx_) {
      WirePayload& cur = payloads_[idx_];
      if (cur.rows_left() == 0) {
        cur = WirePayload();  // release as soon as fully emitted
        continue;
      }
      ColumnBatch out = cur.Next(morsel_rows_);
      out.schema = output_schema_;
      return std::optional<ColumnBatch>(std::move(out));
    }
    return std::optional<ColumnBatch>();
  }

 private:
  std::vector<WirePayload> payloads_;
  std::size_t morsel_rows_;
  std::size_t idx_ = 0;
};

// ---- Parallel pipeline segment --------------------------------------

// Every Nth claimed morsel records a "morsel" span.
constexpr uint64_t kMorselSpanSampleEvery = 64;

// Re-armable one-morsel source under each lane's chain: the lane pushes
// a claimed morsel in and pulls the chain once, which drains the feed.
class MorselFeed final : public PhysicalOperator {
 public:
  explicit MorselFeed(Schema schema) { output_schema_ = std::move(schema); }

  Status Open() override { return Status::OK(); }

  Result<std::optional<ColumnBatch>> Next() override {
    return std::exchange(morsel_, std::nullopt);
  }

  void Push(ColumnBatch m) { morsel_ = std::move(m); }

 private:
  std::optional<ColumnBatch> morsel_;
};

// One lane's operator chain over its own feed, built and opened on the
// consuming thread, then driven by exactly one thread.
struct Lane {
  MorselFeed* feed = nullptr;  // owned by `chain`
  OperatorPtr chain;

  Result<std::optional<ColumnBatch>> Run(ColumnBatch m) {
    feed->Push(std::move(m));
    return chain->Next();
  }
};

Result<Lane> OpenLane(const MorselChain& chain, const Schema& schema) {
  auto feed = std::make_unique<MorselFeed>(schema);
  Lane lane;
  lane.feed = feed.get();
  lane.chain = chain(std::move(feed));
  SWIFT_RETURN_NOT_OK(lane.chain->Open());
  return lane;
}

// Shared state of one parallel segment. Held by shared_ptr from the
// operator AND from every helper job, so a helper that runs after the
// operator was destroyed (its job was still queued) finds the stop flag
// and exits without touching freed memory — and destroying the operator
// never waits on the pool (which would deadlock a fully-busy shared
// pool where every worker is a task waiting to clean up its own
// helpers).
class PipelineCore {
 public:
  PipelineCore(OperatorPtr source, std::size_t window, MorselObs obs)
      : source_(std::move(source)), obs_(obs), window_(window) {
    if (obs_.metrics != nullptr) {
      depth_gauge_ = obs_.metrics->gauge("exec.morsel.queue_depth");
      morsels_ = obs_.metrics->counter("exec.morsel.processed");
      rows_ = obs_.metrics->counter("exec.morsel.rows");
    }
  }

  PhysicalOperator* source() { return source_.get(); }

  // Claims the next morsel from the source and runs `lane` over it.
  // Returns false when nothing was claimed: stream exhausted, an error
  // is pending, the operator is being destroyed, or the claim gate is
  // closed (window full of in-flight/buffered morsels).
  bool TryProcessOne(Lane* lane) {
    ColumnBatch m;
    uint64_t seq = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_ || error_flag_ || exhausted_) return false;
      if (next_claim_ - retired_ >= window_) return false;
      // Pull under the lock: operator sources are not thread-safe. The
      // pull is cheap relative to the chain's work, which runs unlocked.
      Result<std::optional<ColumnBatch>> r = source_->Next();
      if (!r.ok()) {
        // Surface the source error at its sequence position, exactly
        // where serial execution would have hit it.
        Slot s;
        s.status = r.status();
        ready_.emplace(next_claim_++, std::move(s));
        error_flag_ = true;
        exhausted_ = true;
        cv_.notify_all();
        return false;
      }
      if (!r->has_value()) {
        exhausted_ = true;
        cv_.notify_all();
        return false;
      }
      seq = next_claim_++;
      m = *std::move(*r);
      ++inflight_;
    }
    Result<std::optional<ColumnBatch>> out = std::optional<ColumnBatch>();
    {
      obs::Span meta;
      const bool sample =
          obs_.tracer != nullptr && seq % kMorselSpanSampleEvery == 0;
      if (sample) {
        meta.name = "morsel";
        meta.category = "morsel";
        meta.task = static_cast<int>(seq);
      }
      obs::ScopedSpan span(sample ? obs_.tracer : nullptr, std::move(meta));
      out = lane->Run(std::move(m));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
      Slot s;
      s.status = out.status();
      if (out.ok()) {
        // A fully filtered morsel leaves an empty slot; the merge drops it.
        if (out->has_value()) s.batch = std::move(**out);
        obs::Add(morsels_);
        obs::Add(rows_, static_cast<int64_t>(s.batch.num_rows()));
      } else {
        error_flag_ = true;
      }
      ready_.emplace(seq, std::move(s));
      obs::Set(depth_gauge_, static_cast<double>(ready_.size()));
      cv_.notify_all();
    }
    return true;
  }

  // Helper-lane body: park while the gate is closed, claim when it
  // opens, exit for good once the stream ends, errors, or the operator
  // goes away. Helpers are pure accelerators — the consumer never
  // depends on one running.
  void HelperLoop(Lane* lane) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] {
          return stop_ || error_flag_ || exhausted_ ||
                 next_claim_ - retired_ < window_;
        });
        if (stop_ || error_flag_ || exhausted_) return;
      }
      TryProcessOne(lane);
    }
  }

  // Consumer pull: re-emits morsels in claim order (the order-restoring
  // sink). The consumer helps process whenever its next morsel is not
  // ready and the gate allows a claim, so the pipeline makes progress
  // even if no helper ever gets a pool slot.
  Result<std::optional<ColumnBatch>> Pull(Lane* lane) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        auto it = ready_.find(next_emit_);
        if (it != ready_.end()) {
          Slot s = std::move(it->second);
          ready_.erase(it);
          ++next_emit_;
          ++retired_;
          obs::Set(depth_gauge_, static_cast<double>(ready_.size()));
          cv_.notify_all();  // the gate may have opened
          if (!s.status.ok()) return s.status;
          if (s.batch.num_rows() == 0) continue;  // fully filtered
          return std::optional<ColumnBatch>(std::move(s.batch));
        }
        if (exhausted_ && inflight_ == 0 && retired_ == next_claim_) {
          return std::optional<ColumnBatch>();
        }
      }
      if (!TryProcessOne(lane)) {
        // Nothing claimable: wait for an in-flight morsel to land (the
        // gate guarantees whatever we are waiting for is claimed by a
        // live thread) or for the end of the stream.
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] {
          if (stop_) return true;
          if (ready_.count(next_emit_) > 0) return true;
          return exhausted_ && inflight_ == 0 && retired_ == next_claim_;
        });
        if (stop_) {
          return Status::Internal("morsel pipeline stopped mid-drain");
        }
      }
    }
  }

  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }

 private:
  struct Slot {
    Status status = Status::OK();
    ColumnBatch batch;
  };

  OperatorPtr source_;
  MorselObs obs_;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Counter* morsels_ = nullptr;
  obs::Counter* rows_ = nullptr;

  const std::size_t window_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Slot> ready_;
  uint64_t next_claim_ = 0;  // sequence of the next morsel to claim
  uint64_t next_emit_ = 0;   // next sequence to re-emit
  uint64_t retired_ = 0;     // slots popped by the consumer
  std::size_t inflight_ = 0;  // claimed, not yet deposited
  bool exhausted_ = false;
  bool error_flag_ = false;
  bool stop_ = false;
};

class ParallelMorselPipelineOp final : public PhysicalOperator {
 public:
  ParallelMorselPipelineOp(OperatorPtr source, MorselChain chain,
                           ThreadPool* pool, int lanes, MorselObs obs)
      : core_(std::make_shared<PipelineCore>(
            std::move(source), MorselClaimWindow(lanes), obs)),
        chain_(std::move(chain)),
        pool_(pool),
        lanes_(std::max(1, lanes)) {}

  ~ParallelMorselPipelineOp() override { core_->Stop(); }

  Status Open() override {
    SWIFT_RETURN_NOT_OK(core_->source()->Open());
    const Schema schema = core_->source()->output_schema();
    SWIFT_ASSIGN_OR_RETURN(consumer_, OpenLane(chain_, schema));
    output_schema_ = consumer_.chain->output_schema();
    // Helper lanes are best-effort: spawn one per currently-free pool
    // slot (never more than lanes - 1). When the wave already saturates
    // the pool there is nothing to steal, so no helper jobs are queued
    // and the segment costs nothing extra; small waves get real
    // intra-task parallelism. Jobs share ownership of the core and own
    // their lane, whose chain is bound here, before the job is queued.
    if (pool_ != nullptr && lanes_ > 1) {
      const std::size_t want = std::min<std::size_t>(
          static_cast<std::size_t>(lanes_ - 1), pool_->free_slots());
      for (std::size_t i = 0; i < want; ++i) {
        SWIFT_ASSIGN_OR_RETURN(Lane helper, OpenLane(chain_, schema));
        auto lane = std::make_shared<Lane>(std::move(helper));
        std::shared_ptr<PipelineCore> core = core_;
        if (!pool_->Submit([core, lane] { core->HelperLoop(lane.get()); })) {
          break;
        }
      }
    }
    chain_ = nullptr;  // every lane is built; drop what the factory holds
    return Status::OK();
  }

  Result<std::optional<ColumnBatch>> Next() override {
    return core_->Pull(&consumer_);
  }

 private:
  std::shared_ptr<PipelineCore> core_;
  MorselChain chain_;
  ThreadPool* pool_;
  int lanes_;
  Lane consumer_;
};

}  // namespace

OperatorPtr MakeTableMorselSource(std::shared_ptr<const Table> table,
                                  int task_index, int task_count,
                                  Schema schema, std::size_t morsel_rows,
                                  std::vector<std::size_t> columns) {
  return std::make_unique<TableMorselSource>(
      std::move(table), task_index, task_count, std::move(schema),
      morsel_rows, std::move(columns));
}

OperatorPtr MakeWireMorselSource(Schema schema,
                                 std::vector<WirePayload> payloads,
                                 std::size_t morsel_rows) {
  return std::make_unique<WireMorselSource>(
      std::move(schema), std::move(payloads), morsel_rows);
}

OperatorPtr MakeParallelMorselPipeline(OperatorPtr source, MorselChain chain,
                                       ThreadPool* pool, int lanes,
                                       MorselObs obs) {
  return std::make_unique<ParallelMorselPipelineOp>(
      std::move(source), std::move(chain), pool, lanes, obs);
}

}  // namespace swift
