#include "exec/morsel.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <utility>

#include "common/macros.h"
#include "exec/bound_expr.h"

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

// Carves pre-decoded columnar batches (shuffle input) into
// <= morsel_rows dense morsels, releasing each source batch after its
// last morsel. Whole batches that already fit are moved, not copied.
class MorselSource final : public PhysicalOperator {
 public:
  MorselSource(Schema schema, std::vector<ColumnBatch> batches,
               std::size_t morsel_rows)
      : batches_(std::move(batches)),
        morsel_rows_(morsel_rows == 0 ? kDefaultMorselRows : morsel_rows) {
    output_schema_ = std::move(schema);
  }

  Status Open() override { return Status::OK(); }

  Result<std::optional<ColumnBatch>> Next() override {
    for (;;) {
      if (idx_ >= batches_.size()) return std::optional<ColumnBatch>();
      ColumnBatch& cur = batches_[idx_];
      const std::size_t n = cur.num_rows();
      if (offset_ >= n) {
        cur = ColumnBatch{};  // release as soon as fully emitted
        ++idx_;
        offset_ = 0;
        continue;
      }
      if (offset_ == 0 && n <= morsel_rows_) {
        ColumnBatch out = std::move(cur);
        cur = ColumnBatch{};
        ++idx_;
        out.schema = output_schema_;
        return std::optional<ColumnBatch>(std::move(out));
      }
      ColumnBatch out = cur.SliceRows(offset_, morsel_rows_);
      offset_ += out.num_rows();
      out.schema = output_schema_;
      return std::optional<ColumnBatch>(std::move(out));
    }
  }

 private:
  std::vector<ColumnBatch> batches_;
  std::size_t morsel_rows_;
  std::size_t idx_ = 0;
  std::size_t offset_ = 0;
};

// ---- Parallel pipeline segment --------------------------------------

// Predicate truthiness, identical to FilterOp's: NULL is false,
// numeric nonzero / non-empty string true.
bool MorselTruthy(const ColumnVector& col, std::size_t i) {
  switch (col.rep()) {
    case ColumnRep::kNull:
      return false;
    case ColumnRep::kInt64:
      return !col.IsNull(i) && col.Int64At(i) != 0;
    case ColumnRep::kFloat64:
      return !col.IsNull(i) && col.Float64At(i) != 0.0;
    case ColumnRep::kString:
      return !col.IsNull(i) && !col.StrAt(i).empty();
    case ColumnRep::kBoxed: {
      const Value& v = col.BoxedAt(i);
      if (v.is_null()) return false;
      if (v.is_int64()) return v.int64() != 0;
      if (v.is_float64()) return v.float64() != 0.0;
      return !v.str().empty();
    }
  }
  return false;
}

// One bound (compiled) step. BoundExprPtr is shared_ptr<const>, so the
// same bound step is safely shared by every lane; only the scratch
// predicate buffer is per-lane.
struct BoundStep {
  MorselStep::Kind kind = MorselStep::Kind::kFilter;
  BoundExprPtr predicate;
  std::vector<BoundExprPtr> exprs;
  Schema out_schema;  // schema after this step
};

struct LaneScratch {
  ColumnVector pred;
};

// Applies the segment's steps to one morsel in place. Filter composes a
// selection vector over the input's physical storage (exactly like
// FilterOp::Next); project emits dense columns (like
// ProjectOp). A fully-filtered morsel becomes logically empty and is
// dropped by the merge sink, matching FilterOp's never-emit-empties
// contract.
Status RunSteps(const std::vector<BoundStep>& steps, LaneScratch* scratch,
                ColumnBatch* m) {
  for (const BoundStep& st : steps) {
    if (st.kind == MorselStep::Kind::kFilter) {
      SWIFT_RETURN_NOT_OK(st.predicate->EvaluateVector(*m, &scratch->pred));
      const std::size_t n = m->num_rows();
      std::vector<uint32_t> sel;
      sel.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (MorselTruthy(scratch->pred, i)) {
          sel.push_back(static_cast<uint32_t>(m->PhysicalIndex(i)));
        }
      }
      m->selection = std::move(sel);
    } else {
      ColumnBatch out;
      out.schema = st.out_schema;
      out.physical_rows = m->num_rows();
      out.columns.reserve(st.exprs.size());
      for (const BoundExprPtr& e : st.exprs) {
        ColumnVector col;
        SWIFT_RETURN_NOT_OK(e->EvaluateVector(*m, &col));
        out.columns.push_back(std::move(col));
      }
      *m = std::move(out);
    }
  }
  return Status::OK();
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
  PipelineCore(OperatorPtr source, MorselObs obs)
      : source_(std::move(source)), obs_(obs) {
    if (obs_.metrics != nullptr) {
      depth_gauge_ = obs_.metrics->gauge("exec.morsel.queue_depth");
      morsels_ = obs_.metrics->counter("exec.morsel.processed");
      rows_ = obs_.metrics->counter("exec.morsel.rows");
    }
  }

  PhysicalOperator* source() { return source_.get(); }

  void Configure(std::vector<BoundStep> steps, std::size_t window) {
    steps_ = std::move(steps);
    window_ = std::max<std::size_t>(window, 2);
  }

  // Claims the next morsel from the source and runs the steps over it.
  // Returns false when nothing was claimed: stream exhausted, an error
  // is pending, the operator is being destroyed, or the claim gate is
  // closed (window full of in-flight/buffered morsels).
  bool TryProcessOne(LaneScratch* scratch) {
    ColumnBatch m;
    uint64_t seq = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_ || error_flag_ || exhausted_) return false;
      if (next_claim_ - retired_ >= window_) return false;
      // Pull under the lock: operator sources are not thread-safe. The
      // pull is cheap relative to the step work, which runs unlocked.
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
    Status st;
    {
      obs::Span meta;
      const bool sample = obs_.tracer != nullptr && obs_.span_sample_every > 0 &&
                          seq % static_cast<uint64_t>(obs_.span_sample_every) == 0;
      if (sample) {
        meta.name = "morsel";
        meta.category = "morsel";
        meta.task = static_cast<int>(seq);
      }
      obs::ScopedSpan span(sample ? obs_.tracer : nullptr, std::move(meta));
      st = RunSteps(steps_, scratch, &m);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
      Slot s;
      s.status = st;
      if (st.ok()) {
        obs::Add(morsels_);
        obs::Add(rows_, static_cast<int64_t>(m.num_rows()));
        s.batch = std::move(m);
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
  void HelperLoop() {
    LaneScratch scratch;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] {
          return stop_ || error_flag_ || exhausted_ ||
                 next_claim_ - retired_ < window_;
        });
        if (stop_ || error_flag_ || exhausted_) return;
      }
      TryProcessOne(&scratch);
    }
  }

  // Consumer pull: re-emits morsels in claim order (the order-restoring
  // sink). The consumer helps process whenever its next morsel is not
  // ready and the gate allows a claim, so the pipeline makes progress
  // even if no helper ever gets a pool slot.
  Result<std::optional<ColumnBatch>> Pull(LaneScratch* scratch) {
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
      if (!TryProcessOne(scratch)) {
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

  std::vector<BoundStep> steps_;  // immutable after Configure()
  std::size_t window_ = 4;

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
  ParallelMorselPipelineOp(OperatorPtr source, std::vector<MorselStep> steps,
                           ThreadPool* pool, int lanes, MorselObs obs)
      : core_(std::make_shared<PipelineCore>(std::move(source), obs)),
        raw_steps_(std::move(steps)),
        pool_(pool),
        lanes_(std::max(1, lanes)) {}

  ~ParallelMorselPipelineOp() override { core_->Stop(); }

  Status Open() override {
    SWIFT_RETURN_NOT_OK(core_->source()->Open());
    Schema schema = core_->source()->output_schema();
    std::vector<BoundStep> bound;
    bound.reserve(raw_steps_.size());
    for (const MorselStep& st : raw_steps_) {
      BoundStep b;
      b.kind = st.kind;
      if (st.kind == MorselStep::Kind::kFilter) {
        SWIFT_ASSIGN_OR_RETURN(b.predicate, Bind(st.predicate, schema));
        b.out_schema = schema;
      } else {
        if (st.exprs.size() != st.names.size()) {
          return Status::InvalidArgument("project exprs/names size mismatch");
        }
        std::vector<Field> fields;
        fields.reserve(st.exprs.size());
        for (std::size_t i = 0; i < st.exprs.size(); ++i) {
          SWIFT_ASSIGN_OR_RETURN(DataType t, st.exprs[i]->OutputType(schema));
          fields.push_back(Field{st.names[i], t});
        }
        SWIFT_ASSIGN_OR_RETURN(b.exprs, BindAll(st.exprs, schema));
        b.out_schema = Schema(std::move(fields));
        schema = b.out_schema;
      }
      bound.push_back(std::move(b));
    }
    output_schema_ = schema;
    core_->Configure(std::move(bound),
                     std::max<std::size_t>(2 * static_cast<std::size_t>(lanes_),
                                           4));
    // Helper lanes are best-effort: spawn one per currently-free pool
    // slot (never more than lanes - 1). When the wave already saturates
    // the pool there is nothing to steal, so no helper jobs are queued
    // and the segment costs nothing extra; small waves get real
    // intra-task parallelism. Jobs share ownership of the core.
    if (pool_ != nullptr && lanes_ > 1) {
      const std::size_t want = std::min<std::size_t>(
          static_cast<std::size_t>(lanes_ - 1), pool_->free_slots());
      for (std::size_t i = 0; i < want; ++i) {
        std::shared_ptr<PipelineCore> core = core_;
        if (!pool_->Submit([core] { core->HelperLoop(); })) break;
      }
    }
    return Status::OK();
  }

  Result<std::optional<ColumnBatch>> Next() override {
    return core_->Pull(&scratch_);
  }

 private:
  std::shared_ptr<PipelineCore> core_;
  std::vector<MorselStep> raw_steps_;
  ThreadPool* pool_;
  int lanes_;
  LaneScratch scratch_;
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

OperatorPtr MakeMorselSource(Schema schema, std::vector<ColumnBatch> batches,
                             std::size_t morsel_rows) {
  return std::make_unique<MorselSource>(std::move(schema), std::move(batches),
                                        morsel_rows);
}

OperatorPtr MakeParallelMorselPipeline(OperatorPtr source,
                                       std::vector<MorselStep> steps,
                                       ThreadPool* pool, int lanes,
                                       MorselObs obs) {
  return std::make_unique<ParallelMorselPipelineOp>(
      std::move(source), std::move(steps), pool, lanes, obs);
}

}  // namespace swift
