#include "exec/operators.h"

#include <algorithm>

#include "common/hash64.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "exec/bound_expr.h"
#include "exec/expr_eval.h"
#include "exec/hash_table.h"
#include "exec/key_encoder.h"
#include "exec/key_order.h"

namespace swift {

namespace {

// Predicate truthiness of a dense predicate column's cell: NULL is
// false, numeric nonzero / non-empty string true.
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

// The result type of one aggregate whose argument has type `arg`
// (ignored for COUNT); see AggOutputSchema.
Result<DataType> AggResultType(const AggSpec& spec, DataType arg) {
  if (spec.kind == AggKind::kCount) return DataType::kInt64;
  const std::string name =
      std::string(KindName(spec.kind)) + "(" +
      (spec.arg == nullptr ? "*" : spec.arg->ToString()) + ")";
  if (spec.arg == nullptr) {
    return Status::InvalidArgument(
        StrFormat("type error in %s: only count takes *", name.c_str()));
  }
  if (spec.kind == AggKind::kMin || spec.kind == AggKind::kMax) return arg;
  if (arg == DataType::kString) {
    return Status::InvalidArgument(StrFormat(
        "type error in %s: %s needs a numeric argument, got string",
        name.c_str(), std::string(KindName(spec.kind)).c_str()));
  }
  return spec.kind == AggKind::kAvg ? DataType::kFloat64 : arg;
}

bool KeyHasNull(const std::vector<const ColumnVector*>& keys, std::size_t i) {
  for (const ColumnVector* c : keys) {
    if (c->IsNull(i)) return true;
  }
  return false;
}

// Pulls every remaining batch of `child`, then concatenates them once
// (ConcatBatches: each output column sized once, a lone dense batch
// moved).
Status DrainRest(PhysicalOperator* child, std::vector<ColumnBatch> parts,
                 ColumnBatch* out) {
  for (;;) {
    SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> b, child->Next());
    if (!b.has_value()) break;
    if (b->num_rows() == 0) continue;
    parts.push_back(std::move(*b));
  }
  *out = ConcatBatches(child->output_schema(), std::move(parts));
  return Status::OK();
}

// Drains `child` into one dense batch of its output schema (selections
// are gathered away by the concatenation).
Status DrainColumnar(PhysicalOperator* child, ColumnBatch* out) {
  return DrainRest(child, {}, out);
}

// DrainColumnar for a consumer that gathers its output anyway: a child
// that emits a single batch (a SortOp's permutation view) is handed
// over as is, selection and all, so the consumer composes the selection
// into its own row indices instead of flattening first.
Status DrainView(PhysicalOperator* child, ColumnBatch* out) {
  SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> first, child->Next());
  if (!first.has_value()) return DrainRest(child, {}, out);
  SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> second, child->Next());
  if (!second.has_value()) {
    *out = std::move(*first);
    return Status::OK();
  }
  std::vector<ColumnBatch> parts;
  parts.push_back(std::move(*first));
  parts.push_back(std::move(*second));
  return DrainRest(child, std::move(parts), out);
}

// The key columns of one batch, one per key expression, read in place
// where they can be: a plain-column key of a dense batch is the input
// column itself, and any other key evaluates into an owned column. With
// `through_selection`, a key set of plain columns over a selected batch
// is read in place too, through the selection (the hash consumers and
// the aggregate arguments take that; the comparators need dense keys).
// A null expression (an aggregate's COUNT(*)) reads no column: its
// entry is nullptr. Valid while the input lives.
class KeyColumns {
 public:
  Status Eval(const std::vector<BoundExprPtr>& keys, const ColumnBatch& in,
              bool through_selection = false) {
    cols_.clear();
    owned_.clear();
    owned_.reserve(keys.size());  // stable addresses for cols_
    sel_ = nullptr;
    n_ = in.num_rows();
    bool plain = true;
    for (const BoundExprPtr& e : keys) {
      plain &= e == nullptr || e->InputColumn(in) != nullptr;
    }
    const bool in_place = !in.selection || (through_selection && plain);
    if (in_place && in.selection) sel_ = in.selection->data();
    for (const BoundExprPtr& e : keys) {
      if (e == nullptr) {
        cols_.push_back(nullptr);
        continue;
      }
      const ColumnVector* col = in_place ? e->InputColumn(in) : nullptr;
      if (col != nullptr) {
        cols_.push_back(col);
        continue;
      }
      owned_.emplace_back();
      SWIFT_RETURN_NOT_OK(e->EvaluateVector(in, &owned_.back()));
      cols_.push_back(&owned_.back());
    }
    return Status::OK();
  }

  const std::vector<const ColumnVector*>& cols() const { return cols_; }
  const ColumnVector& col(std::size_t k) const { return *cols_[k]; }
  std::size_t num_rows() const { return n_; }
  // Column row of key row i.
  std::size_t Phys(std::size_t i) const { return sel_ ? sel_[i] : i; }

  // Encodes and hashes every key row.
  Status Encode(KeyEncoder::BatchKeys* out) const {
    if (!KeyEncoder::EncodeColumns(cols_, sel_, n_, out)) {
      return Status::ResourceExhausted(
          "encoded keys of one batch exceed the 4 GiB offset range");
    }
    return Status::OK();
  }

  void Hash(std::vector<uint64_t>* hashes, std::vector<uint8_t>* nulls) const {
    KeyEncoder::HashColumns(cols_, sel_, n_, hashes, nulls);
  }

 private:
  std::vector<const ColumnVector*> cols_;
  std::vector<ColumnVector> owned_;
  const uint32_t* sel_ = nullptr;
  std::size_t n_ = 0;
};

// Join output: row k is physical left row lidx[k] next to physical
// right row ridx[k], gathered one column at a time; kPad marks a
// NULL-padded right side (left outer).
constexpr uint32_t kPad = UINT32_MAX;

void GatherJoinOutput(const ColumnBatch& l, const ColumnBatch& r,
                      const std::vector<uint32_t>& lidx,
                      const std::vector<uint32_t>& ridx, ColumnBatch* out) {
  out->physical_rows = lidx.size();
  out->columns.clear();
  out->columns.reserve(l.columns.size() + r.columns.size());
  for (const ColumnVector& src : l.columns) {
    ColumnVector v = ColumnVector::OfRep(src.rep());
    v.AppendSelected(src, lidx.data(), lidx.size());
    out->columns.push_back(std::move(v));
  }
  const bool padded = std::find(ridx.begin(), ridx.end(), kPad) != ridx.end();
  for (const ColumnVector& src : r.columns) {
    ColumnVector v = ColumnVector::OfRep(src.rep());
    if (!padded) {
      v.AppendSelected(src, ridx.data(), ridx.size());
    } else {
      v.Reserve(ridx.size());
      for (const uint32_t j : ridx) {
        if (j == kPad) {
          v.AppendNull();
        } else {
          v.AppendFrom(src, j);
        }
      }
    }
    out->columns.push_back(std::move(v));
  }
}

// Maps logical row indices of `b` to physical ones in place; kPad
// entries stay kPad.
void ComposeSelection(const ColumnBatch& b, std::vector<uint32_t>* idx) {
  if (!b.selection) return;
  const std::vector<uint32_t>& sel = *b.selection;
  for (uint32_t& i : *idx) {
    if (i != kPad) i = sel[i];
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
// (typed loops for the numeric kernels); output is dense. An output that
// is a plain input column no other output reads takes that column by
// move when the input is dense.
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
    SWIFT_ASSIGN_OR_RETURN(bound_exprs_, BindAll(exprs_, in));
    std::vector<Field> fields;
    fields.reserve(exprs_.size());
    for (std::size_t i = 0; i < exprs_.size(); ++i) {
      fields.push_back(Field{names_[i], bound_exprs_[i]->static_type()});
    }
    output_schema_ = Schema(std::move(fields));
    // How many outputs read each input column (an unresolvable name is
    // the dead rhs of a constant AND/OR, which reads nothing).
    std::vector<int> readers(in.num_fields(), 0);
    std::vector<std::string> names;
    for (const ExprPtr& e : exprs_) {
      names.clear();
      e->CollectColumns(&names);
      for (const std::string& name : names) {
        const Result<std::size_t> idx = in.IndexOf(name);
        if (idx.ok()) ++readers[*idx];
      }
    }
    movable_.assign(exprs_.size(), false);
    for (std::size_t i = 0; i < exprs_.size(); ++i) {
      const std::optional<std::size_t> ord = bound_exprs_[i]->column_ordinal();
      movable_[i] = ord.has_value() && readers[*ord] == 1;
    }
    return Status::OK();
  }
  Result<std::optional<ColumnBatch>> Next() override {
    SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> in, child_->Next());
    if (!in.has_value()) return std::optional<ColumnBatch>();
    ColumnBatch out;
    out.schema = output_schema_;
    out.physical_rows = in->num_rows();
    out.columns.resize(bound_exprs_.size());
    for (std::size_t i = 0; i < bound_exprs_.size(); ++i) {
      const BoundExpr& e = *bound_exprs_[i];
      if (movable_[i] && !in->selection && e.InputColumn(*in) != nullptr) {
        out.columns[i] = std::move(in->columns[*e.column_ordinal()]);
        continue;
      }
      SWIFT_RETURN_NOT_OK(e.EvaluateVector(*in, &out.columns[i]));
    }
    return std::optional<ColumnBatch>(std::move(out));
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  std::vector<std::string> names_;
  std::vector<BoundExprPtr> bound_exprs_;
  // Per output: a plain column that is the only reader of its input.
  std::vector<bool> movable_;
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
    ColumnBatch build;
    KeyColumns keys;
    KeyEncoder::BatchKeys bk;
    SWIFT_RETURN_NOT_OK(DrainColumnar(right_.get(), &build));
    SWIFT_RETURN_NOT_OK(keys.Eval(bound_right_, build));
    SWIFT_RETURN_NOT_OK(keys.Encode(&bk));
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
    SWIFT_RETURN_NOT_OK(keys.Eval(bound_left_, probe));
    SWIFT_RETURN_NOT_OK(keys.Encode(&bk));
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

// Merge join: the keys of both inputs evaluate column-at-a-time, the
// merge walk emits (left, right) logical index pairs, and the output
// gathers each column once. An input that arrives as one batch (the
// sort's permutation view) is not flattened: its selection composes
// into the index pairs, so each input row is gathered exactly once.
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
    ColumnBatch l, r;
    KeyColumns lkc, rkc;
    SWIFT_RETURN_NOT_OK(DrainView(left_.get(), &l));
    SWIFT_RETURN_NOT_OK(DrainView(right_.get(), &r));
    SWIFT_RETURN_NOT_OK(lkc.Eval(bound_left_, l));
    SWIFT_RETURN_NOT_OK(rkc.Eval(bound_right_, r));
    const std::vector<const ColumnVector*>& lk = lkc.cols();
    const std::vector<const ColumnVector*>& rk = rkc.cols();
    const KeyComparator left_cmp(lk, lk);
    const KeyComparator right_cmp(rk, rk);
    const KeyComparator cross_cmp(lk, rk);
    const std::size_t ln = l.num_rows();
    const std::size_t rn = r.num_rows();
    for (std::size_t i = 1; i < ln; ++i) {
      if (left_cmp(i - 1, i) > 0) {
        return Status::Internal("MergeJoin left input not sorted");
      }
    }
    for (std::size_t i = 1; i < rn; ++i) {
      if (right_cmp(i - 1, i) > 0) {
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
      const int c = cross_cmp(li, ri);
      if (c < 0) {
        if (join_type_ == JoinType::kLeftOuter) emit_padded(li);
        ++li;
      } else if (c > 0) {
        ++ri;
      } else {
        // Emit the cross product of the equal-key runs.
        std::size_t lend = li;
        while (lend < ln && left_cmp(lend, li) == 0) ++lend;
        std::size_t rend = ri;
        while (rend < rn && right_cmp(rend, ri) == 0) ++rend;
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
    ComposeSelection(l, &lidx);
    ComposeSelection(r, &ridx);
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

// Sort: drain dense, evaluate the key columns once, compute the stable
// sort permutation from the encoded keys (SortPermutation), and emit the
// input storage UNCHANGED under a selection vector — the sorted batch is
// a permutation view, zero gathers.
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
    KeyColumns keys;
    SWIFT_RETURN_NOT_OK(keys.Eval(bound_keys_, *out));
    std::vector<bool> descending;
    for (const SortKey& k : keys_) descending.push_back(!k.ascending);
    out->selection =
        SortPermutation(keys.cols(), descending, out->physical_rows);
    return Status::OK();
  }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<BoundExprPtr> bound_keys_;
};

// Incremental aggregate state shared by hash and streamed variants, fed
// the non-NULL cells of an argument column, whose rep is the argument's
// bound type: `count` of them, an int64 SUM's exact sum (wrapping as
// int64 arithmetic does), the double sum of AVG and a float64 SUM, and
// for MIN/MAX the best cell so far, a string one as one owned string.
struct AggState {
  double sum = 0.0;
  int64_t sum_i64 = 0;
  int64_t count = 0;
  int64_t best_i64 = 0;
  double best_f64 = 0.0;
  std::string best_str;

  // Folds non-NULL cell i of `c`.
  void Update(AggKind kind, const ColumnVector& c, std::size_t i) {
    ++count;
    switch (kind) {
      case AggKind::kCount:
        return;
      case AggKind::kSum:
      case AggKind::kAvg:
        // Numeric by AggResultType.
        if (c.rep() == ColumnRep::kFloat64) {
          sum += c.Float64At(i);
        } else if (kind == AggKind::kSum) {
          sum_i64 = expr_eval::AddWrapping(sum_i64, c.Int64At(i));
        } else {
          sum += static_cast<double>(c.Int64At(i));
        }
        return;
      case AggKind::kMin:
      case AggKind::kMax:
        UpdateBest(kind == AggKind::kMin, c, i);
        return;
    }
  }

  // Replaces the best cell when cell i is strictly better, as
  // Value::Compare orders them (a NaN is the largest float64, so MAX of
  // {1, NaN} is NaN in either order); the first cell always sets it.
  void UpdateBest(bool min, const ColumnVector& c, std::size_t i) {
    const bool first = count == 1;
    switch (c.rep()) {
      case ColumnRep::kInt64: {
        const int64_t v = c.Int64At(i);
        if (first || (min ? v < best_i64 : v > best_i64)) best_i64 = v;
        return;
      }
      case ColumnRep::kFloat64: {
        const double v = c.Float64At(i);
        const int cmp = expr_eval::CompareFloat64(v, best_f64);
        if (first || (min ? cmp < 0 : cmp > 0)) best_f64 = v;
        return;
      }
      case ColumnRep::kString: {
        const std::string_view v = c.StrAt(i);
        if (first || (min ? v < best_str : v > best_str)) best_str.assign(v);
        return;
      }
      case ColumnRep::kNull:
        return;
    }
  }

  // Appends the result to `out`, whose rep is the aggregate's field type
  // (AggResultType).
  void Finish(AggKind kind, ColumnVector* out) const {
    if (kind == AggKind::kCount) {
      out->AppendInt64(count);
      return;
    }
    if (count == 0) {
      out->AppendNull();
      return;
    }
    switch (out->rep()) {
      case ColumnRep::kInt64:
        out->AppendInt64(kind == AggKind::kSum ? sum_i64 : best_i64);
        return;
      case ColumnRep::kFloat64:
        out->AppendFloat64(kind == AggKind::kAvg
                               ? sum / static_cast<double>(count)
                               : (kind == AggKind::kSum
                                      ? sum
                                      : expr_eval::CanonicalFloat64(best_f64)));
        return;
      case ColumnRep::kString:
        out->AppendString(best_str);
        return;
      case ColumnRep::kNull:
        out->AppendNull();  // a kNull argument has no non-NULL cell
        return;
    }
  }
};

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
// aggregate, keyed by the group key columns and fed by the argument
// columns, each read in place when it is a plain column (KeyColumns).
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
    SWIFT_RETURN_NOT_OK(child_->Open());
    const Schema& in = child_->output_schema();
    SWIFT_ASSIGN_OR_RETURN(output_schema_,
                           AggOutputSchema(in, groups_, group_names_, aggs_));
    SWIFT_ASSIGN_OR_RETURN(bound_groups_, BindAll(groups_, in));
    SWIFT_ASSIGN_OR_RETURN(bound_args_, BindAggArgs(aggs_, in));
    return Status::OK();
  }

 protected:
  // Folds logical row i of the argument columns into `slot`.
  void Update(const KeyColumns& args, std::size_t i, AggState* slot) const {
    const std::size_t row = args.Phys(i);
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      const ColumnVector* c = args.cols()[a];
      if (c == nullptr) {
        ++slot[a].count;  // COUNT(*)
      } else if (!c->IsNull(row)) {
        slot[a].Update(aggs_[a].kind, *c, row);
      }
    }
  }

  // Appends group column g's key from row `row` of `key`: a float64 key
  // reports its class's canonical member (expr_eval::CanonicalFloat64),
  // so neither a zero's sign nor a NaN's bits depend on which row opened
  // the group.
  static void AppendGroupKey(const ColumnVector& key, std::size_t row,
                             ColumnVector* out) {
    if (key.rep() == ColumnRep::kFloat64 && !key.IsNull(row)) {
      out->AppendFloat64(expr_eval::CanonicalFloat64(key.Float64At(row)));
    } else {
      out->AppendFrom(key, row);
    }
  }

  // Appends the finished aggregates of one group to `out`'s aggregate
  // columns (the group columns are the caller's).
  void EmitAggs(const AggState* slot, ColumnBatch* out) const {
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      slot[a].Finish(aggs_[a].kind, &out->columns[groups_.size() + a]);
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
    KeyColumns keys;
    KeyEncoder::BatchKeys bk;
    KeyColumns args;
    for (;;) {
      SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> b, child_->Next());
      if (!b.has_value()) break;
      if (b->num_rows() == 0) continue;
      SWIFT_RETURN_NOT_OK(keys.Eval(bound_groups_, *b, true));
      SWIFT_RETURN_NOT_OK(keys.Encode(&bk));
      SWIFT_RETURN_NOT_OK(args.Eval(bound_args_, *b, true));
      for (std::size_t i = 0; i < keys.num_rows(); ++i) {
        // NULL group keys form real groups (null_key ignored).
        const FlatKeyTable::FindResult fr =
            table.FindOrInsert(bk.key(i), bk.hashes[i]);
        if (fr.inserted) {
          states.resize(states.size() + naggs);
          for (std::size_t g = 0; g < keys.cols().size(); ++g) {
            AppendGroupKey(keys.col(g), keys.Phys(i), &out->columns[g]);
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
// through with O(1) state — the current group's first key and its
// aggregate states — so a group may span any number of input batches.
// Each row compares with its group's first key under Value::Compare
// (NULL keys form one group and 3 equals 3.0): as a row of the same
// batch while the group opened in it, and as a one-cell-per-column copy
// for a group that opened in an earlier batch.
class StreamedAggregateOp final : public AggregateOperator {
 public:
  using AggregateOperator::AggregateOperator;

 protected:
  Status Build(ColumnBatch* out) override {
    *out = EmptyBatchOf(output_schema_);
    // The open group's first key: row `first` of `keys` while it is in
    // the current batch (kEarlier: copied into `carried`, one cell per
    // key column, when its batch ended).
    constexpr std::size_t kEarlier = SIZE_MAX;
    std::vector<ColumnVector> carried;
    std::vector<const ColumnVector*> carried_cols;
    std::size_t first = kEarlier;
    std::vector<AggState> states(aggs_.size());
    bool have_group = false;
    std::size_t ngroups = 0;
    KeyColumns keys;
    auto flush = [&]() {
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (first == kEarlier) {
          AppendGroupKey(carried[g], 0, &out->columns[g]);
        } else {
          AppendGroupKey(keys.col(g), first, &out->columns[g]);
        }
      }
      EmitAggs(states.data(), out);
      states.assign(aggs_.size(), AggState{});
      ++ngroups;
    };

    KeyColumns args;
    for (;;) {
      SWIFT_ASSIGN_OR_RETURN(std::optional<ColumnBatch> b, child_->Next());
      if (!b.has_value()) break;
      if (b->num_rows() == 0) continue;
      SWIFT_RETURN_NOT_OK(keys.Eval(bound_groups_, *b));
      SWIFT_RETURN_NOT_OK(args.Eval(bound_args_, *b, true));
      const KeyComparator cmp(keys.cols(), keys.cols());
      const KeyComparator carried_cmp(carried_cols, keys.cols());
      for (std::size_t i = 0; i < keys.num_rows(); ++i) {
        if (have_group) {
          const int c =
              first == kEarlier ? carried_cmp(0, i) : cmp(first, i);
          if (c > 0) {
            return Status::Internal(
                "StreamedAggregate input not sorted by group keys");
          }
          if (c != 0) {
            flush();
            first = i;
          }
        } else {
          first = i;
          have_group = true;
        }
        Update(args, i, states.data());
      }
      if (have_group && first != kEarlier) {
        carried.clear();
        carried_cols.clear();
        for (const ColumnVector* c : keys.cols()) {
          ColumnVector cell = ColumnVector::OfRep(c->rep());
          cell.AppendFrom(*c, first);
          carried.push_back(std::move(cell));
        }
        for (const ColumnVector& c : carried) carried_cols.push_back(&c);
        first = kEarlier;
      }
    }
    // The last group; a global aggregate over empty input still emits
    // its one all-default row.
    if (have_group || groups_.empty()) flush();
    out->physical_rows = ngroups;
    return Status::OK();
  }
};

// Window: rows order through one SortPermutation over (partition keys
// ascending, order keys), a partition is a run of equal partition keys,
// and the running function state walks that order; the output reuses
// the drained input storage under an emission-order selection vector,
// plus one dense window column scattered back to physical positions —
// no input gathers at all.
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
    SWIFT_ASSIGN_OR_RETURN(DataType t, WindowResultType(func_, arg_, in));
    std::vector<Field> fields = in.fields();
    fields.push_back(Field{output_name_, t});
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

    KeyColumns part, order, arg;
    SWIFT_RETURN_NOT_OK(part.Eval(bound_partition_, in));
    SWIFT_RETURN_NOT_OK(order.Eval(bound_order_, in));
    if (func_ == WindowFunc::kSum) {
      SWIFT_RETURN_NOT_OK(arg.Eval({bound_arg_}, in));
    }

    // Rows sort by (partition keys, order keys), stably: within a
    // partition, rows with equal order keys keep input order.
    std::vector<const ColumnVector*> sort_cols = part.cols();
    sort_cols.insert(sort_cols.end(), order.cols().begin(), order.cols().end());
    std::vector<bool> order_desc;
    for (const SortKey& k : order_by_) order_desc.push_back(!k.ascending);
    std::vector<bool> sort_desc(part.cols().size(), false);
    sort_desc.insert(sort_desc.end(), order_desc.begin(), order_desc.end());
    std::vector<uint32_t> emit_order = SortPermutation(sort_cols, sort_desc, n);
    const KeyComparator cmp_part(part.cols(), part.cols());
    const KeyComparator cmp_order(order.cols(), order.cols(), order_desc);

    // Per physical row: the window value, and for SUM the count of
    // non-NULL argument cells summed so far (none: the SUM is NULL).
    std::vector<int64_t> win_i64(n);
    std::vector<double> win_f64;
    std::vector<int64_t> summed;
    if (func_ == WindowFunc::kSum) {
      win_f64.resize(n);
      summed.resize(n);
    }
    int64_t row_number = 0;
    int64_t rank = 0;
    AggState running;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t row = emit_order[j];
      const bool new_group = j == 0 || cmp_part(row, emit_order[j - 1]) != 0;
      if (new_group) {
        row_number = 0;
        running = AggState{};
      }
      ++row_number;
      if (new_group || cmp_order(row, emit_order[j - 1]) != 0) {
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
          // The group SUM's state: an int64 argument sums exactly (and
          // wraps), a float64 one in a double, an all-NULL one not at all.
          const ColumnVector& a = arg.col(0);
          if (!a.IsNull(row)) running.Update(AggKind::kSum, a, row);
          win_i64[row] = running.sum_i64;
          win_f64[row] = running.sum;
          summed[row] = running.count;
          break;
        }
      }
    }

    ColumnVector win = ColumnVector::OfType(output_schema_.fields().back().type);
    win.Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (func_ == WindowFunc::kSum && summed[i] == 0) {
        win.AppendNull();
      } else if (win.rep() == ColumnRep::kFloat64) {
        win.AppendFloat64(win_f64[i]);
      } else {
        win.AppendInt64(win_i64[i]);
      }
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

Result<Schema> AggOutputSchema(const Schema& in,
                               const std::vector<ExprPtr>& groups,
                               const std::vector<std::string>& group_names,
                               const std::vector<AggSpec>& aggs) {
  if (groups.size() != group_names.size()) {
    return Status::InvalidArgument("group exprs/names size mismatch");
  }
  std::vector<Field> fields;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    SWIFT_ASSIGN_OR_RETURN(BoundExprPtr g, Bind(groups[i], in));
    fields.push_back(Field{group_names[i], g->static_type()});
  }
  for (const AggSpec& a : aggs) {
    DataType arg = DataType::kNull;
    if (a.arg != nullptr) {
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(a.arg, in));
      arg = b->static_type();
    }
    SWIFT_ASSIGN_OR_RETURN(DataType t, AggResultType(a, arg));
    fields.push_back(Field{a.output_name, t});
  }
  return Schema(std::move(fields));
}

Result<DataType> WindowResultType(WindowFunc func, const ExprPtr& arg,
                                  const Schema& in) {
  if (func != WindowFunc::kSum) return DataType::kInt64;
  if (arg == nullptr) {
    return Status::InvalidArgument("window sum requires an argument");
  }
  SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(arg, in));
  if (b->static_type() == DataType::kString) {
    return Status::InvalidArgument(StrFormat(
        "type error in sum(%s): window sum needs a numeric argument, got "
        "string", arg->ToString().c_str()));
  }
  // As AggResultType gives SUM: the argument's own type.
  return b->static_type();
}

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

Result<HashPartitioner> HashPartitioner::Make(const Schema& schema,
                                              const std::vector<ExprPtr>& keys,
                                              int num_partitions) {
  if (num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  HashPartitioner p;
  SWIFT_ASSIGN_OR_RETURN(p.keys_, BindAll(keys, schema));
  p.num_partitions_ = static_cast<uint32_t>(num_partitions);
  return p;
}

Status HashPartitioner::Route(const ColumnBatch& batch,
                              PartitionedRows* out) const {
  const std::size_t n = batch.num_rows();
  std::vector<uint32_t> dest(n, 0);
  if (!keys_.empty()) {
    // Normalized hashing + multiply-shift range reduction over the key
    // columns read in place: strided and sequential keys spread
    // uniformly, and NULL keys stay at 0. The hash needs no key bytes,
    // so none are materialized.
    KeyColumns kc;
    SWIFT_RETURN_NOT_OK(kc.Eval(keys_, batch, true));
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> nulls;
    kc.Hash(&hashes, &nulls);
    for (std::size_t i = 0; i < n; ++i) {
      if (nulls[i] == 0) dest[i] = RangeReduce(hashes[i], num_partitions_);
    }
  }
  // Counting sort by destination: stable, so each partition keeps input
  // order.
  out->starts.assign(num_partitions_ + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++out->starts[dest[i] + 1];
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    out->starts[p + 1] += out->starts[p];
  }
  out->rows.resize(n);
  std::vector<uint32_t> cursor(out->starts.begin(), out->starts.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out->rows[cursor[dest[i]]++] =
        static_cast<uint32_t>(batch.PhysicalIndex(i));
  }
  return Status::OK();
}

}  // namespace swift
