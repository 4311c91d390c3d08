#include "exec/operators.h"

#include <algorithm>
#include <numeric>

#include "common/hash64.h"
#include "common/macros.h"
#include "exec/bound_expr.h"
#include "exec/hash_table.h"
#include "exec/key_encoder.h"

namespace swift {

namespace {

// Predicate truthiness of an evaluated value: NULL is false, numeric
// nonzero / non-empty string true.
bool IsTruthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int64()) return v.int64() != 0;
  if (v.is_float64()) return v.float64() != 0.0;
  return !v.str().empty();
}

// Truthiness of a dense predicate column's cell without boxing.
bool TruthyAt(const ColumnVector& col, std::size_t i) {
  switch (col.rep()) {
    case ColumnRep::kNull:
      return false;
    case ColumnRep::kInt64:
      return !col.IsNull(i) && col.Int64At(i) != 0;
    case ColumnRep::kFloat64:
      return !col.IsNull(i) && col.Float64At(i) != 0.0;
    case ColumnRep::kString:
      return !col.IsNull(i) && !col.StrAt(i).empty();
    case ColumnRep::kBoxed:
      return IsTruthy(col.BoxedAt(i));
  }
  return false;
}

std::string_view KindName(AggKind k) {
  switch (k) {
    case AggKind::kSum:
      return "sum";
    case AggKind::kCount:
      return "count";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
  }
  return "?";
}

// Cell-level comparison with Value::Compare semantics exactly — NULLs
// first (and equal to each other), int64/int64 exact, mixed numerics by
// double value, strings lexicographic, numbers before strings — but
// reading typed storage directly, so the sort/merge-join/window/
// aggregate comparators never box the common reps.
int CompareCells(const ColumnVector& a, std::size_t i, const ColumnVector& b,
                 std::size_t j) {
  const bool ln = a.IsNull(i);
  const bool rn = b.IsNull(j);
  if (ln || rn) return ln == rn ? 0 : (ln ? -1 : 1);
  const ColumnRep ra = a.rep();
  const ColumnRep rb = b.rep();
  if (ra == ColumnRep::kInt64 && rb == ColumnRep::kInt64) {
    const int64_t x = a.Int64At(i);
    const int64_t y = b.Int64At(j);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const bool na = ra == ColumnRep::kInt64 || ra == ColumnRep::kFloat64;
  const bool nb = rb == ColumnRep::kInt64 || rb == ColumnRep::kFloat64;
  if (na && nb) {
    const double x =
        ra == ColumnRep::kInt64 ? static_cast<double>(a.Int64At(i))
                                : a.Float64At(i);
    const double y =
        rb == ColumnRep::kInt64 ? static_cast<double>(b.Int64At(j))
                                : b.Float64At(j);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (ra == ColumnRep::kString && rb == ColumnRep::kString) {
    const int c = a.StrAt(i).compare(b.StrAt(j));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Boxed or mixed-rep cells: defer to the boxed comparison.
  return a.GetValue(i).Compare(b.GetValue(j));
}

// Lexicographic CompareCells over parallel key columns.
int CompareKeys(const std::vector<ColumnVector>& a, std::size_t i,
                const std::vector<ColumnVector>& b, std::size_t j) {
  for (std::size_t k = 0; k < a.size(); ++k) {
    const int c = CompareCells(a[k], i, b[k], j);
    if (c != 0) return c;
  }
  return 0;
}

bool KeyHasNull(const std::vector<ColumnVector>& keys, std::size_t i) {
  for (const ColumnVector& c : keys) {
    if (c.IsNull(i)) return true;
  }
  return false;
}

// Drains `child` into one dense batch seeded from its output schema
// (selections are gathered away by the appends).
Status DrainColumnar(PhysicalOperator* child, ColumnBatch* out) {
  *out = EmptyBatchOf(child->output_schema());
  for (;;) {
    SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> b, child->Next());
    if (!b.has_value()) return Status::OK();
    AppendColumnBatch(*b, out);
  }
}

// Evaluates each bound key expression over `in`: a dense batch of
// in.num_rows() rows whose column k is key k. Plain column references
// and computed keys take the same path.
Status EvalKeyBatch(const std::vector<BoundExprPtr>& keys,
                    const ColumnBatch& in, ColumnBatch* out) {
  out->columns.clear();
  out->columns.reserve(keys.size());
  out->physical_rows = in.num_rows();
  out->selection.reset();
  for (const BoundExprPtr& e : keys) {
    ColumnVector c;
    SWIFT_RETURN_NOT_OK(e->EvaluateVector(in, &c));
    out->columns.push_back(std::move(c));
  }
  return Status::OK();
}

std::vector<uint32_t> KeyOrdinals(const ColumnBatch& keys) {
  std::vector<uint32_t> ords(keys.columns.size());
  std::iota(ords.begin(), ords.end(), 0u);
  return ords;
}

// Encodes and hashes every row of an EvalKeyBatch result.
Status EncodeKeys(const ColumnBatch& keys, KeyEncoder::BatchKeys* out) {
  if (!KeyEncoder::EncodeBatchColumns(keys, KeyOrdinals(keys), out)) {
    return Status::ResourceExhausted(
        "encoded keys of one batch exceed the 4 GiB offset range");
  }
  return Status::OK();
}

// Evaluates the aggregate arguments over `in`; COUNT(*) slots stay empty.
Status EvalAggArgs(const std::vector<BoundExprPtr>& args, const ColumnBatch& in,
                   std::vector<ColumnVector>* out) {
  out->resize(args.size());
  for (std::size_t a = 0; a < args.size(); ++a) {
    if (args[a] != nullptr) {
      SWIFT_RETURN_NOT_OK(args[a]->EvaluateVector(in, &(*out)[a]));
    }
  }
  return Status::OK();
}

// Join output: row k is left row lidx[k] next to right row ridx[k],
// gathered one column at a time; kPad marks a NULL-padded right side
// (left outer).
constexpr uint32_t kPad = UINT32_MAX;

void GatherJoinOutput(const ColumnBatch& l, const ColumnBatch& r,
                      const std::vector<uint32_t>& lidx,
                      const std::vector<uint32_t>& ridx, ColumnBatch* out) {
  out->physical_rows = lidx.size();
  out->columns.clear();
  out->columns.reserve(l.columns.size() + r.columns.size());
  for (const ColumnVector& src : l.columns) {
    ColumnVector v = ColumnVector::OfRep(src.rep());
    v.Reserve(lidx.size());
    for (const uint32_t i : lidx) v.AppendFrom(src, i);
    out->columns.push_back(std::move(v));
  }
  for (const ColumnVector& src : r.columns) {
    ColumnVector v = ColumnVector::OfRep(src.rep());
    v.Reserve(ridx.size());
    for (const uint32_t j : ridx) {
      if (j == kPad) {
        v.AppendNull();
      } else {
        v.AppendFrom(src, j);
      }
    }
    out->columns.push_back(std::move(v));
  }
}

// Base for operators that consume their whole input before producing
// anything (sort, window, joins, aggregates): Build() runs on the first
// pull and its batch is emitted once; an empty result emits nothing.
class MaterializingOperator : public PhysicalOperator {
 public:
  Result<std::optional<ColumnBatch>> Next() final {
    if (emitted_) return std::optional<ColumnBatch>();
    emitted_ = true;
    ColumnBatch out;
    SWIFT_RETURN_NOT_OK(Build(&out));
    if (out.num_rows() == 0) return std::optional<ColumnBatch>();
    out.schema = output_schema_;
    return std::optional<ColumnBatch>(std::move(out));
  }

 protected:
  virtual Status Build(ColumnBatch* out) = 0;

 private:
  bool emitted_ = false;
};

class BatchSource final : public PhysicalOperator {
 public:
  BatchSource(Schema schema, std::vector<Batch> batches)
      : batches_(std::move(batches)) {
    output_schema_ = std::move(schema);
  }
  Status Open() override { return Status::OK(); }
  Result<std::optional<ColumnBatch>> Next() override {
    if (idx_ >= batches_.size()) return std::optional<ColumnBatch>();
    Batch b = std::move(batches_[idx_++]);
    b.schema = output_schema_;
    SWIFT_ASSIGN_OR_RETURN(ColumnBatch cb, ToColumnBatch(b));
    return std::optional<ColumnBatch>(std::move(cb));
  }

 private:
  std::vector<Batch> batches_;
  std::size_t idx_ = 0;
};

class ColumnBatchSource final : public PhysicalOperator {
 public:
  ColumnBatchSource(Schema schema, std::vector<ColumnBatch> batches)
      : batches_(std::move(batches)) {
    output_schema_ = std::move(schema);
  }
  Status Open() override { return Status::OK(); }
  Result<std::optional<ColumnBatch>> Next() override {
    if (idx_ >= batches_.size()) return std::optional<ColumnBatch>();
    ColumnBatch b = std::move(batches_[idx_++]);
    b.schema = output_schema_;
    return std::optional<ColumnBatch>(std::move(b));
  }

 private:
  std::vector<ColumnBatch> batches_;
  std::size_t idx_ = 0;
};

// Vectorized filter: the predicate evaluates column-at-a-time and
// survivors become a selection vector over the input's physical
// storage — no row copies, no column gathers.
class FilterOp final : public PhysicalOperator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}
  Status Open() override {
    SWIFT_RETURN_NOT_OK(child_->Open());
    output_schema_ = child_->output_schema();
    SWIFT_ASSIGN_OR_RETURN(bound_predicate_, Bind(predicate_, output_schema_));
    return Status::OK();
  }
  Result<std::optional<ColumnBatch>> Next() override {
    for (;;) {
      SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> in, child_->Next());
      if (!in.has_value()) return std::optional<ColumnBatch>();
      SWIFT_RETURN_NOT_OK(bound_predicate_->EvaluateVector(*in, &pred_col_));
      const std::size_t n = in->num_rows();
      std::vector<uint32_t> sel;
      sel.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (TruthyAt(pred_col_, i)) {
          sel.push_back(static_cast<uint32_t>(in->PhysicalIndex(i)));
        }
      }
      if (!sel.empty()) {
        ColumnBatch out = std::move(*in);
        out.schema = output_schema_;
        out.selection = std::move(sel);
        return std::optional<ColumnBatch>(std::move(out));
      }
      // Fully-filtered batch: keep pulling.
    }
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  BoundExprPtr bound_predicate_;
  ColumnVector pred_col_;
};

// Vectorized project: each output column is one EvaluateVector call
// (typed loops for the numeric kernels); output is dense.
class ProjectOp final : public PhysicalOperator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        names_(std::move(names)) {}
  Status Open() override {
    if (exprs_.size() != names_.size()) {
      return Status::InvalidArgument("project exprs/names size mismatch");
    }
    SWIFT_RETURN_NOT_OK(child_->Open());
    const Schema& in = child_->output_schema();
    std::vector<Field> fields;
    fields.reserve(exprs_.size());
    for (std::size_t i = 0; i < exprs_.size(); ++i) {
      SWIFT_ASSIGN_OR_RETURN(DataType t, exprs_[i]->OutputType(in));
      fields.push_back(Field{names_[i], t});
    }
    output_schema_ = Schema(std::move(fields));
    SWIFT_ASSIGN_OR_RETURN(bound_exprs_, BindAll(exprs_, in));
    return Status::OK();
  }
  Result<std::optional<ColumnBatch>> Next() override {
    SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> in, child_->Next());
    if (!in.has_value()) return std::optional<ColumnBatch>();
    ColumnBatch out;
    out.schema = output_schema_;
    out.physical_rows = in->num_rows();
    out.columns.reserve(bound_exprs_.size());
    for (const BoundExprPtr& e : bound_exprs_) {
      ColumnVector col;
      SWIFT_RETURN_NOT_OK(e->EvaluateVector(*in, &col));
      out.columns.push_back(std::move(col));
    }
    return std::optional<ColumnBatch>(std::move(out));
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  std::vector<std::string> names_;
  std::vector<BoundExprPtr> bound_exprs_;
};

class LimitOp final : public PhysicalOperator {
 public:
  LimitOp(OperatorPtr child, int64_t limit)
      : child_(std::move(child)), remaining_(limit) {}
  Status Open() override {
    if (remaining_ < 0) {
      return Status::InvalidArgument("negative LIMIT");
    }
    SWIFT_RETURN_NOT_OK(child_->Open());
    output_schema_ = child_->output_schema();
    return Status::OK();
  }
  Result<std::optional<ColumnBatch>> Next() override {
    if (remaining_ == 0) return std::optional<ColumnBatch>();
    SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> in, child_->Next());
    if (!in.has_value()) return std::optional<ColumnBatch>();
    // Counts are LOGICAL rows — a filtered batch's selection, not its
    // physical storage extent.
    if (static_cast<int64_t>(in->num_rows()) > remaining_) {
      in->TruncateLogical(static_cast<std::size_t>(remaining_));
    }
    remaining_ -= static_cast<int64_t>(in->num_rows());
    return in;
  }

 private:
  OperatorPtr child_;
  int64_t remaining_;
};

// Hash equi-join. The build side drains into one dense batch whose
// encoded keys go into the flat table, duplicates chaining through
// next_row in build order; the probe side drains, encodes its keys in
// one pass and records (probe, build) index pairs in probe order, and
// the output gathers each column once.
class HashJoinOp final : public MaterializingOperator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::vector<ExprPtr> lk,
             std::vector<ExprPtr> rk, JoinType join_type)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(lk)),
        right_keys_(std::move(rk)),
        join_type_(join_type) {}

  Status Open() override {
    if (left_keys_.size() != right_keys_.size() || left_keys_.empty()) {
      return Status::InvalidArgument("join key arity mismatch");
    }
    SWIFT_RETURN_NOT_OK(left_->Open());
    SWIFT_RETURN_NOT_OK(right_->Open());
    output_schema_ = left_->output_schema().Concat(right_->output_schema());
    SWIFT_ASSIGN_OR_RETURN(bound_left_,
                           BindAll(left_keys_, left_->output_schema()));
    SWIFT_ASSIGN_OR_RETURN(bound_right_,
                           BindAll(right_keys_, right_->output_schema()));
    return Status::OK();
  }

 protected:
  Status Build(ColumnBatch* out) override {
    ColumnBatch build, keys;
    KeyEncoder::BatchKeys bk;
    SWIFT_RETURN_NOT_OK(DrainColumnar(right_.get(), &build));
    SWIFT_RETURN_NOT_OK(EvalKeyBatch(bound_right_, build, &keys));
    SWIFT_RETURN_NOT_OK(EncodeKeys(keys, &bk));
    const std::size_t build_n = build.physical_rows;
    FlatKeyTable table(build_n);
    std::vector<int32_t> chain_head;  // per dense key: first build row
    std::vector<int32_t> chain_tail;  // per dense key: last build row
    std::vector<int32_t> next_row(build_n, -1);
    for (std::size_t i = 0; i < build_n; ++i) {
      if (bk.null_key[i] != 0) continue;  // NULL keys never match
      const FlatKeyTable::FindResult r =
          table.FindOrInsert(bk.key(i), bk.hashes[i]);
      const int32_t row = static_cast<int32_t>(i);
      if (r.inserted) {
        chain_head.push_back(row);
        chain_tail.push_back(row);
      } else {
        next_row[chain_tail[r.index]] = row;
        chain_tail[r.index] = row;
      }
    }

    ColumnBatch probe;
    SWIFT_RETURN_NOT_OK(DrainColumnar(left_.get(), &probe));
    SWIFT_RETURN_NOT_OK(EvalKeyBatch(bound_left_, probe, &keys));
    SWIFT_RETURN_NOT_OK(EncodeKeys(keys, &bk));
    std::vector<uint32_t> lidx, ridx;
    for (std::size_t i = 0; i < probe.physical_rows; ++i) {
      bool matched = false;
      if (bk.null_key[i] == 0) {
        const int64_t dense = table.Find(bk.key(i), bk.hashes[i]);
        if (dense >= 0) {
          for (int32_t r = chain_head[static_cast<std::size_t>(dense)];
               r >= 0; r = next_row[r]) {
            lidx.push_back(static_cast<uint32_t>(i));
            ridx.push_back(static_cast<uint32_t>(r));
          }
          matched = true;
        }
      }
      if (!matched && join_type_ == JoinType::kLeftOuter) {
        lidx.push_back(static_cast<uint32_t>(i));
        ridx.push_back(kPad);
      }
    }
    GatherJoinOutput(probe, build, lidx, ridx, out);
    return Status::OK();
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  JoinType join_type_;
  std::vector<BoundExprPtr> bound_left_;
  std::vector<BoundExprPtr> bound_right_;
};

// Merge join: both inputs drain into dense batches, the keys evaluate
// column-at-a-time, the merge walk emits (left, right) index pairs, and
// the output gathers each column once.
class MergeJoinOp final : public MaterializingOperator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right, std::vector<ExprPtr> lk,
              std::vector<ExprPtr> rk, JoinType join_type)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(lk)),
        right_keys_(std::move(rk)),
        join_type_(join_type) {}

  Status Open() override {
    if (left_keys_.size() != right_keys_.size() || left_keys_.empty()) {
      return Status::InvalidArgument("join key arity mismatch");
    }
    SWIFT_RETURN_NOT_OK(left_->Open());
    SWIFT_RETURN_NOT_OK(right_->Open());
    output_schema_ = left_->output_schema().Concat(right_->output_schema());
    SWIFT_ASSIGN_OR_RETURN(bound_left_,
                           BindAll(left_keys_, left_->output_schema()));
    SWIFT_ASSIGN_OR_RETURN(bound_right_,
                           BindAll(right_keys_, right_->output_schema()));
    return Status::OK();
  }

 protected:
  Status Build(ColumnBatch* out) override {
    ColumnBatch l, r, lkb, rkb;
    SWIFT_RETURN_NOT_OK(DrainColumnar(left_.get(), &l));
    SWIFT_RETURN_NOT_OK(DrainColumnar(right_.get(), &r));
    SWIFT_RETURN_NOT_OK(EvalKeyBatch(bound_left_, l, &lkb));
    SWIFT_RETURN_NOT_OK(EvalKeyBatch(bound_right_, r, &rkb));
    const std::vector<ColumnVector>& lk = lkb.columns;
    const std::vector<ColumnVector>& rk = rkb.columns;
    const std::size_t ln = l.physical_rows;
    const std::size_t rn = r.physical_rows;
    for (std::size_t i = 1; i < ln; ++i) {
      if (CompareKeys(lk, i - 1, lk, i) > 0) {
        return Status::Internal("MergeJoin left input not sorted");
      }
    }
    for (std::size_t i = 1; i < rn; ++i) {
      if (CompareKeys(rk, i - 1, rk, i) > 0) {
        return Status::Internal("MergeJoin right input not sorted");
      }
    }

    std::vector<uint32_t> lidx, ridx;
    auto emit_padded = [&](std::size_t i) {
      lidx.push_back(static_cast<uint32_t>(i));
      ridx.push_back(kPad);
    };
    std::size_t li = 0, ri = 0;
    while (li < ln && ri < rn) {
      if (KeyHasNull(lk, li)) {
        if (join_type_ == JoinType::kLeftOuter) emit_padded(li);
        ++li;
        continue;
      }
      if (KeyHasNull(rk, ri)) {
        ++ri;
        continue;
      }
      const int c = CompareKeys(lk, li, rk, ri);
      if (c < 0) {
        if (join_type_ == JoinType::kLeftOuter) emit_padded(li);
        ++li;
      } else if (c > 0) {
        ++ri;
      } else {
        // Emit the cross product of the equal-key runs.
        std::size_t lend = li;
        while (lend < ln && CompareKeys(lk, lend, lk, li) == 0) ++lend;
        std::size_t rend = ri;
        while (rend < rn && CompareKeys(rk, rend, rk, ri) == 0) ++rend;
        for (std::size_t i = li; i < lend; ++i) {
          for (std::size_t j = ri; j < rend; ++j) {
            lidx.push_back(static_cast<uint32_t>(i));
            ridx.push_back(static_cast<uint32_t>(j));
          }
        }
        li = lend;
        ri = rend;
      }
    }
    if (join_type_ == JoinType::kLeftOuter) {
      for (; li < ln; ++li) emit_padded(li);
    }
    GatherJoinOutput(l, r, lidx, ridx, out);
    return Status::OK();
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  JoinType join_type_;
  std::vector<BoundExprPtr> bound_left_;
  std::vector<BoundExprPtr> bound_right_;
};

// Sort: drain dense, evaluate the key columns once, stable-sort an index
// permutation with typed cell comparisons, and emit the input storage
// UNCHANGED under a selection vector — the sorted batch is a permutation
// view, zero gathers.
class SortOp final : public MaterializingOperator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  Status Open() override {
    SWIFT_RETURN_NOT_OK(child_->Open());
    output_schema_ = child_->output_schema();
    bound_keys_.clear();
    bound_keys_.reserve(keys_.size());
    for (const SortKey& key : keys_) {
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(key.expr, output_schema_));
      bound_keys_.push_back(std::move(b));
    }
    return Status::OK();
  }

 protected:
  Status Build(ColumnBatch* out) override {
    SWIFT_RETURN_NOT_OK(DrainColumnar(child_.get(), out));
    ColumnBatch keys;
    SWIFT_RETURN_NOT_OK(EvalKeyBatch(bound_keys_, *out, &keys));
    std::vector<uint32_t> perm(out->physical_rows);
    std::iota(perm.begin(), perm.end(), 0u);
    std::stable_sort(perm.begin(), perm.end(),
                     [&](uint32_t a, uint32_t b) {
                       for (std::size_t k = 0; k < keys_.size(); ++k) {
                         int c = CompareCells(keys.columns[k], a,
                                              keys.columns[k], b);
                         if (!keys_[k].ascending) c = -c;
                         if (c != 0) return c < 0;
                       }
                       return false;
                     });
    out->selection = std::move(perm);
    return Status::OK();
  }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<BoundExprPtr> bound_keys_;
};

// Incremental aggregate state shared by hash and streamed variants.
struct AggState {
  double sum = 0.0;
  int64_t count = 0;
  bool all_int = true;
  Value min;
  Value max;

  void Update(AggKind kind, const Value& v) {
    if (kind == AggKind::kCount) {
      // COUNT(*) passes a non-null marker; COUNT(x) skips nulls upstream.
      ++count;
      return;
    }
    if (v.is_null()) return;
    ++count;
    if (v.is_numeric()) {
      sum += v.AsDouble();
      if (!v.is_int64()) all_int = false;
    } else {
      all_int = false;
    }
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }

  Value Finish(AggKind kind) const {
    switch (kind) {
      case AggKind::kCount:
        return Value(count);
      case AggKind::kSum:
        if (count == 0) return Value::Null();
        return all_int ? Value(static_cast<int64_t>(sum)) : Value(sum);
      case AggKind::kMin:
        return min;
      case AggKind::kMax:
        return max;
      case AggKind::kAvg:
        if (count == 0) return Value::Null();
        return Value(sum / static_cast<double>(count));
    }
    return Value::Null();
  }
};

Result<Schema> AggOutputSchema(const Schema& in,
                               const std::vector<ExprPtr>& groups,
                               const std::vector<std::string>& group_names,
                               const std::vector<AggSpec>& aggs) {
  std::vector<Field> fields;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    SWIFT_ASSIGN_OR_RETURN(DataType t, groups[i]->OutputType(in));
    fields.push_back(Field{group_names[i], t});
  }
  for (const AggSpec& a : aggs) {
    DataType t = DataType::kFloat64;
    if (a.kind == AggKind::kCount) {
      t = DataType::kInt64;
    } else if (a.arg != nullptr) {
      SWIFT_ASSIGN_OR_RETURN(DataType at, a.arg->OutputType(in));
      t = (a.kind == AggKind::kMin || a.kind == AggKind::kMax)
              ? at
              : (a.kind == AggKind::kAvg ? DataType::kFloat64 : at);
    }
    fields.push_back(Field{a.output_name, t});
  }
  return Schema(std::move(fields));
}

// Binds the aggregate argument expressions; COUNT(*) slots stay null.
Result<std::vector<BoundExprPtr>> BindAggArgs(const std::vector<AggSpec>& aggs,
                                              const Schema& schema) {
  std::vector<BoundExprPtr> out;
  out.reserve(aggs.size());
  for (const AggSpec& a : aggs) {
    if (a.arg == nullptr) {
      out.push_back(nullptr);
      continue;
    }
    SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(a.arg, schema));
    out.push_back(std::move(b));
  }
  return out;
}

// Shared shape of both aggregates: group columns then one column per
// aggregate, keyed by evaluated group columns and fed by evaluated
// argument columns.
class AggregateOperator : public MaterializingOperator {
 public:
  AggregateOperator(OperatorPtr child, std::vector<ExprPtr> groups,
                    std::vector<std::string> group_names,
                    std::vector<AggSpec> aggs)
      : child_(std::move(child)),
        groups_(std::move(groups)),
        group_names_(std::move(group_names)),
        aggs_(std::move(aggs)) {}

  Status Open() override {
    if (groups_.size() != group_names_.size()) {
      return Status::InvalidArgument("group exprs/names size mismatch");
    }
    SWIFT_RETURN_NOT_OK(child_->Open());
    const Schema& in = child_->output_schema();
    SWIFT_ASSIGN_OR_RETURN(output_schema_,
                           AggOutputSchema(in, groups_, group_names_, aggs_));
    SWIFT_ASSIGN_OR_RETURN(bound_groups_, BindAll(groups_, in));
    SWIFT_ASSIGN_OR_RETURN(bound_args_, BindAggArgs(aggs_, in));
    return Status::OK();
  }

 protected:
  // Folds logical row i of the evaluated argument columns into `slot`.
  void Update(const std::vector<ColumnVector>& args, std::size_t i,
              AggState* slot) const {
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      if (bound_args_[a] == nullptr) {
        slot[a].Update(aggs_[a].kind, Value(int64_t{1}));  // COUNT(*)
        continue;
      }
      const Value v = args[a].GetValue(i);
      if (aggs_[a].kind == AggKind::kCount && v.is_null()) continue;
      slot[a].Update(aggs_[a].kind, v);
    }
  }

  // Appends the finished aggregates of one group to `out`'s aggregate
  // columns (the group columns are the caller's).
  void EmitAggs(const AggState* slot, ColumnBatch* out) const {
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      out->columns[groups_.size() + a].Append(slot[a].Finish(aggs_[a].kind));
    }
  }

  OperatorPtr child_;
  std::vector<ExprPtr> groups_;
  std::vector<std::string> group_names_;
  std::vector<AggSpec> aggs_;
  std::vector<BoundExprPtr> bound_groups_;
  std::vector<BoundExprPtr> bound_args_;
};

// Hash GROUP BY: group keys encode + hash in column-at-a-time passes
// and arguments evaluate once per batch; only the table probe and the
// state update stay per row. AggState slots live in one dense-major
// vector addressed by the key's table index, and dense order IS
// first-seen order, so output determinism is free.
class HashAggregateOp final : public AggregateOperator {
 public:
  using AggregateOperator::AggregateOperator;

 protected:
  Status Build(ColumnBatch* out) override {
    *out = EmptyBatchOf(output_schema_);
    const std::size_t naggs = aggs_.size();
    FlatKeyTable table;
    std::vector<AggState> states;  // table.size() * naggs, dense-major
    ColumnBatch keys;
    KeyEncoder::BatchKeys bk;
    std::vector<ColumnVector> args;
    for (;;) {
      SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> b, child_->Next());
      if (!b.has_value()) break;
      if (b->num_rows() == 0) continue;
      SWIFT_RETURN_NOT_OK(EvalKeyBatch(bound_groups_, *b, &keys));
      SWIFT_RETURN_NOT_OK(EncodeKeys(keys, &bk));
      SWIFT_RETURN_NOT_OK(EvalAggArgs(bound_args_, *b, &args));
      for (std::size_t i = 0; i < keys.physical_rows; ++i) {
        // NULL group keys form real groups (null_key ignored).
        const FlatKeyTable::FindResult fr =
            table.FindOrInsert(bk.key(i), bk.hashes[i]);
        if (fr.inserted) {
          states.resize(states.size() + naggs);
          for (std::size_t g = 0; g < keys.columns.size(); ++g) {
            out->columns[g].AppendFrom(keys.columns[g], i);
          }
        }
        Update(args, i, states.data() + std::size_t{fr.index} * naggs);
      }
    }
    std::size_t ngroups = table.size();
    if (groups_.empty() && ngroups == 0) {
      // Global aggregate over empty input: one all-default row.
      states.resize(naggs);
      ngroups = 1;
    }
    for (std::size_t g = 0; g < ngroups; ++g) {
      EmitAggs(states.data() + g * naggs, out);
    }
    out->physical_rows = ngroups;
    return Status::OK();
  }
};

// Streamed GROUP BY over input sorted by the group keys: batches stream
// through with O(1) state — the current group's first key, held as one
// cell per key column, and its aggregate states — so a group may span
// any number of input batches. Keys compare with CompareCells, i.e.
// Value::Compare: NULL keys form one group and 3 equals 3.0.
class StreamedAggregateOp final : public AggregateOperator {
 public:
  using AggregateOperator::AggregateOperator;

 protected:
  Status Build(ColumnBatch* out) override {
    *out = EmptyBatchOf(output_schema_);
    std::vector<ColumnVector> current;  // the open group's key, one cell each
    std::vector<AggState> states(aggs_.size());
    bool have_group = false;
    std::size_t ngroups = 0;
    auto flush = [&]() {
      for (std::size_t g = 0; g < current.size(); ++g) {
        out->columns[g].AppendFrom(current[g], 0);
      }
      EmitAggs(states.data(), out);
      states.assign(aggs_.size(), AggState{});
      ++ngroups;
    };
    auto open_group = [&](const ColumnBatch& keys, std::size_t i) {
      current.clear();
      for (const ColumnVector& c : keys.columns) {
        ColumnVector cell = ColumnVector::OfRep(c.rep());
        cell.AppendFrom(c, i);
        current.push_back(std::move(cell));
      }
      have_group = true;
    };

    ColumnBatch keys;
    std::vector<ColumnVector> args;
    for (;;) {
      SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> b, child_->Next());
      if (!b.has_value()) break;
      if (b->num_rows() == 0) continue;
      SWIFT_RETURN_NOT_OK(EvalKeyBatch(bound_groups_, *b, &keys));
      SWIFT_RETURN_NOT_OK(EvalAggArgs(bound_args_, *b, &args));
      for (std::size_t i = 0; i < keys.physical_rows; ++i) {
        if (!have_group) {
          open_group(keys, i);
        } else {
          const int c = CompareKeys(current, 0, keys.columns, i);
          if (c > 0) {
            return Status::Internal(
                "StreamedAggregate input not sorted by group keys");
          }
          if (c != 0) {
            flush();
            open_group(keys, i);
          }
        }
        Update(args, i, states.data());
      }
    }
    // The last group; a global aggregate over empty input still emits
    // its one all-default row.
    if (have_group || groups_.empty()) flush();
    out->physical_rows = ngroups;
    return Status::OK();
  }
};

// Window: the frame evaluation (partition grouping, per-group ordering,
// running function state) runs over key columns with typed cell
// comparisons; the output reuses the drained input storage under an
// emission-order selection vector, plus one dense window column
// scattered back to physical positions — no input gathers at all.
class WindowOp final : public MaterializingOperator {
 public:
  WindowOp(OperatorPtr child, std::vector<ExprPtr> partition_by,
           std::vector<SortKey> order_by, WindowFunc func, ExprPtr arg,
           std::string output_name)
      : child_(std::move(child)),
        partition_by_(std::move(partition_by)),
        order_by_(std::move(order_by)),
        func_(func),
        arg_(std::move(arg)),
        output_name_(std::move(output_name)) {}

  Status Open() override {
    SWIFT_RETURN_NOT_OK(child_->Open());
    const Schema in = child_->output_schema();
    std::vector<Field> fields = in.fields();
    fields.push_back(Field{output_name_, func_ == WindowFunc::kSum
                                             ? DataType::kFloat64
                                             : DataType::kInt64});
    output_schema_ = Schema(std::move(fields));

    SWIFT_ASSIGN_OR_RETURN(bound_partition_, BindAll(partition_by_, in));
    bound_order_.clear();
    bound_order_.reserve(order_by_.size());
    for (const SortKey& sk : order_by_) {
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(sk.expr, in));
      bound_order_.push_back(std::move(b));
    }
    if (arg_ != nullptr) {
      SWIFT_ASSIGN_OR_RETURN(bound_arg_, Bind(arg_, in));
    }
    return Status::OK();
  }

 protected:
  Status Build(ColumnBatch* out) override {
    ColumnBatch in;
    SWIFT_RETURN_NOT_OK(DrainColumnar(child_.get(), &in));
    const std::size_t n = in.physical_rows;
    if (n == 0) return Status::OK();

    ColumnBatch part, order;
    SWIFT_RETURN_NOT_OK(EvalKeyBatch(bound_partition_, in, &part));
    SWIFT_RETURN_NOT_OK(EvalKeyBatch(bound_order_, in, &order));
    ColumnVector arg_col;
    if (func_ == WindowFunc::kSum) {
      if (bound_arg_ == nullptr) {
        return Status::InvalidArgument("window sum requires an argument");
      }
      SWIFT_RETURN_NOT_OK(bound_arg_->EvaluateVector(in, &arg_col));
    }

    // Group rows per partition through the flat table (one hash lookup
    // per row), then order the groups by key and sort only within each
    // group.
    FlatKeyTable table;
    std::vector<std::vector<std::size_t>> groups;  // dense -> row idxs
    std::vector<std::size_t> group_first;          // dense -> first row
    KeyEncoder::BatchKeys bk;
    SWIFT_RETURN_NOT_OK(EncodeKeys(part, &bk));
    for (std::size_t i = 0; i < n; ++i) {
      // NULL partition keys form real partitions (null_key ignored).
      const FlatKeyTable::FindResult fr =
          table.FindOrInsert(bk.key(i), bk.hashes[i]);
      if (fr.inserted) {
        groups.emplace_back();
        group_first.push_back(i);
      }
      groups[fr.index].push_back(i);
    }
    std::vector<uint32_t> gorder(groups.size());
    std::iota(gorder.begin(), gorder.end(), 0u);
    std::sort(gorder.begin(), gorder.end(), [&](uint32_t a, uint32_t b) {
      const int c = CompareKeys(part.columns, group_first[a], part.columns,
                                group_first[b]);
      if (c != 0) return c < 0;
      return a < b;  // tie across distinct encodings: first-seen order
    });

    auto cmp_order = [&](std::size_t a, std::size_t b) {
      for (std::size_t k = 0; k < order_by_.size(); ++k) {
        int oc = CompareCells(order.columns[k], a, order.columns[k], b);
        if (!order_by_[k].ascending) oc = -oc;
        if (oc != 0) return oc;
      }
      return 0;
    };

    std::vector<uint32_t> emit_order;
    emit_order.reserve(n);
    std::vector<int64_t> win_i64;
    std::vector<double> win_f64;
    if (func_ == WindowFunc::kSum) {
      win_f64.resize(n);
    } else {
      win_i64.resize(n);
    }
    for (const uint32_t g : gorder) {
      std::vector<std::size_t>& idxs = groups[g];
      // Stable: rows with equal order keys keep input order.
      std::stable_sort(idxs.begin(), idxs.end(),
                       [&](std::size_t a, std::size_t b) {
                         return cmp_order(a, b) < 0;
                       });
      int64_t row_number = 0;
      int64_t rank = 0;
      double running_sum = 0.0;
      for (std::size_t j = 0; j < idxs.size(); ++j) {
        const std::size_t row = idxs[j];
        ++row_number;
        if (j == 0 ||
            CompareKeys(order.columns, row, order.columns, idxs[j - 1]) != 0) {
          rank = row_number;
        }
        switch (func_) {
          case WindowFunc::kRowNumber:
            win_i64[row] = row_number;
            break;
          case WindowFunc::kRank:
            win_i64[row] = rank;
            break;
          case WindowFunc::kSum: {
            if (!arg_col.IsNull(row)) {
              switch (arg_col.rep()) {
                case ColumnRep::kInt64:
                  running_sum += static_cast<double>(arg_col.Int64At(row));
                  break;
                case ColumnRep::kFloat64:
                  running_sum += arg_col.Float64At(row);
                  break;
                default:
                  running_sum += arg_col.GetValue(row).AsDouble();
                  break;
              }
            }
            win_f64[row] = running_sum;
            break;
          }
        }
        emit_order.push_back(static_cast<uint32_t>(row));
      }
    }

    ColumnVector win = ColumnVector::OfType(
        func_ == WindowFunc::kSum ? DataType::kFloat64 : DataType::kInt64);
    win.Reserve(n);
    if (func_ == WindowFunc::kSum) {
      for (std::size_t i = 0; i < n; ++i) win.AppendFloat64(win_f64[i]);
    } else {
      for (std::size_t i = 0; i < n; ++i) win.AppendInt64(win_i64[i]);
    }
    *out = std::move(in);
    out->columns.push_back(std::move(win));
    out->selection = std::move(emit_order);
    return Status::OK();
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> partition_by_;
  std::vector<SortKey> order_by_;
  WindowFunc func_;
  ExprPtr arg_;
  std::string output_name_;
  std::vector<BoundExprPtr> bound_partition_;
  std::vector<BoundExprPtr> bound_order_;
  BoundExprPtr bound_arg_;
};

}  // namespace

std::string_view AggKindToString(AggKind kind) { return KindName(kind); }

OperatorPtr MakeBatchSource(Schema schema, std::vector<Batch> batches) {
  return std::make_unique<BatchSource>(std::move(schema), std::move(batches));
}
OperatorPtr MakeColumnBatchSource(Schema schema,
                                  std::vector<ColumnBatch> batches) {
  return std::make_unique<ColumnBatchSource>(std::move(schema),
                                             std::move(batches));
}
OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(child), std::move(predicate));
}
OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names) {
  return std::make_unique<ProjectOp>(std::move(child), std::move(exprs),
                                     std::move(names));
}
OperatorPtr MakeLimit(OperatorPtr child, int64_t limit) {
  return std::make_unique<LimitOp>(std::move(child), limit);
}
OperatorPtr MakeHashJoin(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys,
                         JoinType join_type) {
  return std::make_unique<HashJoinOp>(std::move(left), std::move(right),
                                      std::move(left_keys),
                                      std::move(right_keys), join_type);
}
OperatorPtr MakeMergeJoin(OperatorPtr left, OperatorPtr right,
                          std::vector<ExprPtr> left_keys,
                          std::vector<ExprPtr> right_keys,
                          JoinType join_type) {
  return std::make_unique<MergeJoinOp>(std::move(left), std::move(right),
                                       std::move(left_keys),
                                       std::move(right_keys), join_type);
}
OperatorPtr MakeSort(OperatorPtr child, std::vector<SortKey> keys) {
  return std::make_unique<SortOp>(std::move(child), std::move(keys));
}
OperatorPtr MakeHashAggregate(OperatorPtr child, std::vector<ExprPtr> groups,
                              std::vector<std::string> group_names,
                              std::vector<AggSpec> aggs) {
  return std::make_unique<HashAggregateOp>(std::move(child), std::move(groups),
                                           std::move(group_names),
                                           std::move(aggs));
}
OperatorPtr MakeStreamedAggregate(OperatorPtr child,
                                  std::vector<ExprPtr> groups,
                                  std::vector<std::string> group_names,
                                  std::vector<AggSpec> aggs) {
  return std::make_unique<StreamedAggregateOp>(
      std::move(child), std::move(groups), std::move(group_names),
      std::move(aggs));
}
OperatorPtr MakeWindow(OperatorPtr child, std::vector<ExprPtr> partition_by,
                       std::vector<SortKey> order_by, WindowFunc func,
                       ExprPtr arg, std::string output_name) {
  return std::make_unique<WindowOp>(std::move(child), std::move(partition_by),
                                    std::move(order_by), func, std::move(arg),
                                    std::move(output_name));
}

Result<ColumnBatch> CollectAllColumnar(PhysicalOperator* op) {
  SWIFT_RETURN_NOT_OK(op->Open());
  ColumnBatch out;
  SWIFT_RETURN_NOT_OK(DrainColumnar(op, &out));
  return out;
}

Result<Batch> CollectAll(PhysicalOperator* op) {
  SWIFT_ASSIGN_OR_RETURN(ColumnBatch out, CollectAllColumnar(op));
  return ToRowBatch(out);
}

Result<std::vector<ColumnBatch>> HashPartitionColumnar(
    const ColumnBatch& batch, const std::vector<ExprPtr>& keys,
    int num_partitions) {
  if (num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  SWIFT_ASSIGN_OR_RETURN(std::vector<BoundExprPtr> bound,
                         BindAll(keys, batch.schema));
  const std::size_t nparts = static_cast<std::size_t>(num_partitions);
  const uint32_t n32 = static_cast<uint32_t>(num_partitions);
  const std::size_t n = batch.num_rows();
  std::vector<std::size_t> dest(n, 0);
  if (!bound.empty()) {
    // Normalized hashing + multiply-shift range reduction: strided and
    // sequential keys spread uniformly, and NULL keys stay at 0. The
    // hash needs no key bytes, so none are materialized.
    ColumnBatch key_batch;
    SWIFT_RETURN_NOT_OK(EvalKeyBatch(bound, batch, &key_batch));
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> nulls;
    if (!KeyEncoder::HashBatchColumns(key_batch, KeyOrdinals(key_batch),
                                      &hashes, &nulls)) {
      return Status::Internal("partition key ordinal out of range");
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (nulls[i] == 0) dest[i] = RangeReduce(hashes[i], n32);
    }
  }
  std::vector<std::size_t> counts(nparts, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[dest[i]];
  std::vector<ColumnBatch> out(nparts);
  const std::size_t ncols = batch.columns.size();
  for (std::size_t p = 0; p < nparts; ++p) {
    out[p].schema = batch.schema;
    out[p].physical_rows = counts[p];
    out[p].columns.reserve(ncols);
    for (const ColumnVector& col : batch.columns) {
      ColumnVector c = ColumnVector::OfRep(col.rep());
      c.Reserve(counts[p]);
      out[p].columns.push_back(std::move(c));
    }
  }
  // Column-at-a-time scatter: each source column streams once.
  for (std::size_t c = 0; c < ncols; ++c) {
    const ColumnVector& src = batch.columns[c];
    for (std::size_t i = 0; i < n; ++i) {
      out[dest[i]].columns[c].AppendFrom(src, batch.PhysicalIndex(i));
    }
  }
  return out;
}

}  // namespace swift
