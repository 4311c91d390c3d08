#include "exec/bound_expr.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "exec/column_batch.h"
#include "exec/expr_eval.h"

namespace swift {

namespace {

using expr_eval::Arith;
using expr_eval::Compare;
using expr_eval::FuncId;
using expr_eval::Truth;

bool IsNumericType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kFloat64;
}

// ---- Scalar kernels for the generic (cell-by-cell) tails -------------
// The typed loops and the generic tails must agree bit-for-bit, so the
// non-null scalar semantics live here and in exec/expr_eval.h.

Result<Value> NumericArithScalar(BinaryOp op, const Value& lv,
                                 const Value& rv) {
  if (lv.is_float64() && rv.is_float64()) {
    const double a = lv.float64_unchecked();
    const double b = rv.float64_unchecked();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(a + b);
      case BinaryOp::kSub:
        return Value(a - b);
      case BinaryOp::kMul:
        return Value(a * b);
      case BinaryOp::kDiv:
        if (b == 0.0) return Status::Application("division by zero");
        return Value(a / b);
      default:
        break;
    }
  } else if (lv.is_int64() && rv.is_int64()) {
    const int64_t a = lv.int64_unchecked();
    const int64_t b = rv.int64_unchecked();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(a + b);
      case BinaryOp::kSub:
        return Value(a - b);
      case BinaryOp::kMul:
        return Value(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::Application("division by zero");
        return Value(static_cast<double>(a) / static_cast<double>(b));
      default:
        break;
    }
  }
  return Arith(op, lv, rv);
}

// Whether a three-way comparison result `c` (-1/0/1) satisfies `op`.
bool CompareHolds(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq:
      return c == 0;
    case BinaryOp::kNe:
      return c != 0;
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLe:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    default:
      return c >= 0;
  }
}

Result<Value> NumericCompareScalar(BinaryOp op, const Value& lv,
                                   const Value& rv) {
  if (lv.is_numeric() && rv.is_numeric()) {
    int c;
    if (lv.is_int64() && rv.is_int64()) {
      const int64_t a = lv.int64_unchecked();
      const int64_t b = rv.int64_unchecked();
      c = a < b ? -1 : (a > b ? 1 : 0);
    } else {
      const double a = lv.AsDouble();
      const double b = rv.AsDouble();
      c = a < b ? -1 : (a > b ? 1 : 0);
    }
    return Value(static_cast<int64_t>(CompareHolds(op, c) ? 1 : 0));
  }
  return Compare(op, lv, rv);
}

Result<Value> NegateScalar(const Value& v) {
  if (!v.is_numeric()) {
    return Status::Application("negation of non-numeric value");
  }
  if (v.is_int64()) return Value(-v.int64_unchecked());
  return Value(-v.float64_unchecked());
}

// Truth() over a column cell without boxing: -1 NULL, 0 false, 1 true.
int TruthAt(const ColumnVector& c, std::size_t i) {
  switch (c.rep()) {
    case ColumnRep::kNull:
      return -1;
    case ColumnRep::kInt64:
      return c.IsNull(i) ? -1 : (c.Int64At(i) != 0 ? 1 : 0);
    case ColumnRep::kFloat64:
      return c.IsNull(i) ? -1 : (c.Float64At(i) != 0.0 ? 1 : 0);
    case ColumnRep::kString:
      return c.IsNull(i) ? -1 : (!c.StrAt(i).empty() ? 1 : 0);
    case ColumnRep::kBoxed:
      return Truth(c.BoxedAt(i));
  }
  return -1;
}

bool IsArithOp(BinaryOp op) {
  return op == BinaryOp::kAdd || op == BinaryOp::kSub ||
         op == BinaryOp::kMul || op == BinaryOp::kDiv;
}

bool IsCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// Any non-AND/OR binary op over non-null operands.
Result<Value> BinaryScalar(BinaryOp op, const Value& lv, const Value& rv) {
  if (IsArithOp(op)) return Arith(op, lv, rv);
  if (IsCompareOp(op)) return Compare(op, lv, rv);
  if (op == BinaryOp::kLike) {
    if (!lv.is_string() || !rv.is_string()) {
      return Status::Application("LIKE requires string operands");
    }
    return Value(
        static_cast<int64_t>(SqlLikeMatch(lv.str(), rv.str()) ? 1 : 0));
  }
  return Status::Internal("unhandled binary op");
}

class BoundColumn final : public BoundExpr {
 public:
  BoundColumn(std::size_t idx, std::string name, DataType t)
      : BoundExpr(t), idx_(idx), name_(std::move(name)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    if (idx_ >= in.columns.size()) {
      return Status::Internal(
          StrFormat("row narrower than schema at column '%s'", name_.c_str()));
    }
    const ColumnVector& src = in.columns[idx_];
    if (!in.selection) {
      *out = src;  // dense batch: contiguous storage copy, no boxing
      return Status::OK();
    }
    *out = ColumnVector::OfRep(src.rep());
    out->AppendSelected(src, in.selection->data(), in.selection->size());
    return Status::OK();
  }

 private:
  std::size_t idx_;
  std::string name_;
};

class BoundLiteral final : public BoundExpr {
 public:
  explicit BoundLiteral(Value v) : BoundExpr(v.type()), v_(std::move(v)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    // Typed fill: the numeric reps size their storage once and fill it.
    const std::size_t n = in.num_rows();
    switch (v_.type()) {
      case DataType::kNull:
        *out = ColumnVector::MakeNull(n);
        break;
      case DataType::kInt64:
        *out = ColumnVector();
        out->ResizeFixedWidth(ColumnRep::kInt64, n);
        std::fill_n(out->MutableInt64Data(), n, v_.int64_unchecked());
        break;
      case DataType::kFloat64:
        *out = ColumnVector();
        out->ResizeFixedWidth(ColumnRep::kFloat64, n);
        std::fill_n(out->MutableFloat64Data(), n, v_.float64_unchecked());
        break;
      case DataType::kString:
        *out = ColumnVector::OfType(DataType::kString);
        out->Reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          out->AppendString(v_.str_unchecked());
        }
        break;
    }
    return Status::OK();
  }

  const Value* literal() const override { return &v_; }

 private:
  Value v_;
};

// A constant subtree whose evaluation fails (e.g. a literal 1/0): it
// stays an eval-time error, raised by any non-empty batch.
class BoundError final : public BoundExpr {
 public:
  explicit BoundError(Status st)
      : BoundExpr(DataType::kNull), st_(std::move(st)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    if (in.num_rows() == 0) {
      *out = ColumnVector();
      return Status::OK();
    }
    return st_;
  }

 private:
  Status st_;
};

class BoundAndOr final : public BoundExpr {
 public:
  BoundAndOr(BinaryOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(DataType::kInt64),
        is_and_(op == BinaryOp::kAnd),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    // Row semantics evaluate the lhs on every row, so an lhs error is
    // the batch's error.
    ColumnVector lv;
    SWIFT_RETURN_NOT_OK(lhs_->EvaluateVector(in, &lv));
    const std::size_t n = in.num_rows();
    const int dominant = is_and_ ? 0 : 1;
    ColumnVector rv;
    // Row semantics skip the rhs where the lhs already decided the row
    // (AND: false, OR: true), so an rhs error counts only on an
    // undecided row: on error, re-evaluate the rhs over just those rows.
    // `rv` then holds one value per undecided row, in order.
    const bool narrowed = !rhs_->EvaluateVector(in, &rv).ok();
    if (narrowed) {
      ColumnBatch undecided;
      undecided.schema = in.schema;
      undecided.columns = in.columns;
      undecided.physical_rows = in.physical_rows;
      std::vector<uint32_t> sel;
      for (std::size_t i = 0; i < n; ++i) {
        if (TruthAt(lv, i) != dominant) {
          sel.push_back(static_cast<uint32_t>(in.PhysicalIndex(i)));
        }
      }
      undecided.selection = std::move(sel);
      SWIFT_RETURN_NOT_OK(rhs_->EvaluateVector(undecided, &rv));
    }
    *out = ColumnVector::OfType(DataType::kInt64);
    out->Reserve(n);
    std::size_t next_undecided = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const int lt = TruthAt(lv, i);
      int rt = -1;  // irrelevant on a decided row
      if (!narrowed) {
        rt = TruthAt(rv, i);
      } else if (lt != dominant) {
        rt = TruthAt(rv, next_undecided++);
      }
      int res;  // Kleene three-valued AND/OR
      if (is_and_) {
        res = (lt == 0 || rt == 0) ? 0 : ((lt == 1 && rt == 1) ? 1 : -1);
      } else {
        res = (lt == 1 || rt == 1) ? 1 : ((lt == 0 && rt == 0) ? 0 : -1);
      }
      if (res < 0) {
        out->AppendNull();
      } else {
        out->AppendInt64(res);
      }
    }
    return Status::OK();
  }

 private:
  bool is_and_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

// Generic binary node: delegates to the shared kernels.
class BoundBinary final : public BoundExpr {
 public:
  BoundBinary(BinaryOp op, DataType t, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(t), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    ColumnVector lv;
    ColumnVector rv;
    SWIFT_RETURN_NOT_OK(lhs_->EvaluateVector(in, &lv));
    SWIFT_RETURN_NOT_OK(rhs_->EvaluateVector(in, &rv));
    const std::size_t n = in.num_rows();
    if (lv.rep() == ColumnRep::kString && rv.rep() == ColumnRep::kString &&
        (IsCompareOp(op_) || op_ == BinaryOp::kLike)) {
      // Both sides are strings: compare the heap bytes in place. The
      // string_view order is unsigned byte-wise, as in Value::Compare.
      *out = ColumnVector::OfType(DataType::kInt64);
      out->Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (lv.IsNull(i) || rv.IsNull(i)) {
          out->AppendNull();
          continue;
        }
        const std::string_view a = lv.StrAt(i);
        const std::string_view b = rv.StrAt(i);
        const bool t = op_ == BinaryOp::kLike ? SqlLikeMatch(a, b)
                                              : CompareHolds(op_, a.compare(b));
        out->AppendInt64(t ? 1 : 0);
      }
      return Status::OK();
    }
    *out = ColumnVector::OfType(static_type_);
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Value a = lv.GetValue(i);
      const Value b = rv.GetValue(i);
      if (a.is_null() || b.is_null()) {
        out->AppendNull();
        continue;
      }
      SWIFT_ASSIGN_OR_RETURN(Value v, BinaryScalar(op_, a, b));
      out->Append(v);
    }
    return Status::OK();
  }

 private:
  BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

// Fast path for arithmetic when both subtrees are statically numeric:
// the matched-type cases compute inline; anything else (mixed int/float,
// runtime type surprises) falls back to the shared kernel for identical
// results and error text.
class BoundNumericArith final : public BoundExpr {
 public:
  BoundNumericArith(BinaryOp op, DataType t, BoundExprPtr lhs,
                    BoundExprPtr rhs)
      : BoundExpr(t), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    ColumnVector lv;
    ColumnVector rv;
    SWIFT_RETURN_NOT_OK(lhs_->EvaluateVector(in, &lv));
    SWIFT_RETURN_NOT_OK(rhs_->EvaluateVector(in, &rv));
    const std::size_t n = in.num_rows();
    // Matched-type typed loops; everything else goes cell-by-cell
    // through the shared scalar kernel (identical results and errors).
    if (lv.rep() == ColumnRep::kInt64 && rv.rep() == ColumnRep::kInt64 &&
        op_ != BinaryOp::kDiv) {
      *out = ColumnVector::OfType(DataType::kInt64);
      out->Reserve(n);
      const int64_t* a = lv.Int64Data();
      const int64_t* b = rv.Int64Data();
      const bool no_nulls = !lv.has_nulls() && !rv.has_nulls();
      for (std::size_t i = 0; i < n; ++i) {
        if (!no_nulls && (lv.IsNull(i) || rv.IsNull(i))) {
          out->AppendNull();
          continue;
        }
        int64_t r = 0;
        switch (op_) {
          case BinaryOp::kAdd:
            r = a[i] + b[i];
            break;
          case BinaryOp::kSub:
            r = a[i] - b[i];
            break;
          default:
            r = a[i] * b[i];
            break;
        }
        out->AppendInt64(r);
      }
      return Status::OK();
    }
    if (lv.rep() == ColumnRep::kFloat64 && rv.rep() == ColumnRep::kFloat64) {
      *out = ColumnVector::OfType(DataType::kFloat64);
      out->Reserve(n);
      const double* a = lv.Float64Data();
      const double* b = rv.Float64Data();
      const bool no_nulls = !lv.has_nulls() && !rv.has_nulls();
      for (std::size_t i = 0; i < n; ++i) {
        if (!no_nulls && (lv.IsNull(i) || rv.IsNull(i))) {
          out->AppendNull();
          continue;
        }
        double r = 0;
        switch (op_) {
          case BinaryOp::kAdd:
            r = a[i] + b[i];
            break;
          case BinaryOp::kSub:
            r = a[i] - b[i];
            break;
          case BinaryOp::kMul:
            r = a[i] * b[i];
            break;
          default:
            if (b[i] == 0.0) return Status::Application("division by zero");
            r = a[i] / b[i];
            break;
        }
        out->AppendFloat64(r);
      }
      return Status::OK();
    }
    *out = ColumnVector::OfType(static_type_);
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Value a = lv.GetValue(i);
      const Value b = rv.GetValue(i);
      if (a.is_null() || b.is_null()) {
        out->AppendNull();
        continue;
      }
      SWIFT_ASSIGN_OR_RETURN(Value v, NumericArithScalar(op_, a, b));
      out->Append(v);
    }
    return Status::OK();
  }

 private:
  BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

// Fast path for comparisons when both subtrees are statically numeric.
class BoundNumericCompare final : public BoundExpr {
 public:
  BoundNumericCompare(BinaryOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(DataType::kInt64),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    ColumnVector lv;
    ColumnVector rv;
    SWIFT_RETURN_NOT_OK(lhs_->EvaluateVector(in, &lv));
    SWIFT_RETURN_NOT_OK(rhs_->EvaluateVector(in, &rv));
    const std::size_t n = in.num_rows();
    const bool l_num = lv.rep() == ColumnRep::kInt64 ||
                       lv.rep() == ColumnRep::kFloat64;
    const bool r_num = rv.rep() == ColumnRep::kInt64 ||
                       rv.rep() == ColumnRep::kFloat64;
    if (l_num && r_num) {
      *out = ColumnVector::OfType(DataType::kInt64);
      out->Reserve(n);
      const bool both_int = lv.rep() == ColumnRep::kInt64 &&
                            rv.rep() == ColumnRep::kInt64;
      const bool no_nulls = !lv.has_nulls() && !rv.has_nulls();
      for (std::size_t i = 0; i < n; ++i) {
        if (!no_nulls && (lv.IsNull(i) || rv.IsNull(i))) {
          out->AppendNull();
          continue;
        }
        int c;
        if (both_int) {
          const int64_t a = lv.Int64At(i);
          const int64_t b = rv.Int64At(i);
          c = a < b ? -1 : (a > b ? 1 : 0);
        } else {
          const double a = lv.rep() == ColumnRep::kInt64
                               ? static_cast<double>(lv.Int64At(i))
                               : lv.Float64At(i);
          const double b = rv.rep() == ColumnRep::kInt64
                               ? static_cast<double>(rv.Int64At(i))
                               : rv.Float64At(i);
          c = a < b ? -1 : (a > b ? 1 : 0);
        }
        out->AppendInt64(CompareHolds(op_, c) ? 1 : 0);
      }
      return Status::OK();
    }
    *out = ColumnVector::OfType(DataType::kInt64);
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Value a = lv.GetValue(i);
      const Value b = rv.GetValue(i);
      if (a.is_null() || b.is_null()) {
        out->AppendNull();
        continue;
      }
      SWIFT_ASSIGN_OR_RETURN(Value v, NumericCompareScalar(op_, a, b));
      out->Append(v);
    }
    return Status::OK();
  }

 private:
  BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

class BoundUnary final : public BoundExpr {
 public:
  BoundUnary(UnaryOp op, DataType t, BoundExprPtr operand)
      : BoundExpr(t), op_(op), operand_(std::move(operand)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    ColumnVector v;
    SWIFT_RETURN_NOT_OK(operand_->EvaluateVector(in, &v));
    const std::size_t n = in.num_rows();
    if (op_ == UnaryOp::kNot) {
      *out = ColumnVector::OfType(DataType::kInt64);
      out->Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const int t = TruthAt(v, i);
        if (t < 0) {
          out->AppendNull();
        } else {
          out->AppendInt64(t == 1 ? 0 : 1);
        }
      }
      return Status::OK();
    }
    if (v.rep() == ColumnRep::kInt64) {
      *out = ColumnVector::OfType(DataType::kInt64);
      out->Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (v.IsNull(i)) {
          out->AppendNull();
        } else {
          out->AppendInt64(-v.Int64At(i));
        }
      }
      return Status::OK();
    }
    if (v.rep() == ColumnRep::kFloat64) {
      *out = ColumnVector::OfType(DataType::kFloat64);
      out->Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (v.IsNull(i)) {
          out->AppendNull();
        } else {
          out->AppendFloat64(-v.Float64At(i));
        }
      }
      return Status::OK();
    }
    *out = ColumnVector::OfType(static_type_);
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Value a = v.GetValue(i);
      if (a.is_null()) {
        out->AppendNull();
        continue;
      }
      SWIFT_ASSIGN_OR_RETURN(Value r, NegateScalar(a));
      out->Append(r);
    }
    return Status::OK();
  }

 private:
  UnaryOp op_;
  BoundExprPtr operand_;
};

class BoundFunction final : public BoundExpr {
 public:
  BoundFunction(FuncId id, std::string name, DataType t,
                std::vector<BoundExprPtr> args)
      : BoundExpr(t), id_(id), name_(std::move(name)), args_(std::move(args)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    std::vector<ColumnVector> cols(args_.size());
    for (std::size_t a = 0; a < args_.size(); ++a) {
      SWIFT_RETURN_NOT_OK(args_[a]->EvaluateVector(in, &cols[a]));
    }
    // Semantics stay defined once, in expr_eval: box only this row's
    // argument cells and apply the function to them.
    const std::size_t n = in.num_rows();
    *out = ColumnVector::OfType(static_type_);
    out->Reserve(n);
    std::vector<Value> vals(args_.size());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t a = 0; a < cols.size(); ++a) {
        vals[a] = cols[a].GetValue(i);
      }
      SWIFT_ASSIGN_OR_RETURN(Value v,
                             expr_eval::ApplyFunction(id_, name_, vals));
      out->Append(v);
    }
    return Status::OK();
  }

 private:
  FuncId id_;
  std::string name_;
  std::vector<BoundExprPtr> args_;
};

// Constant nodes are BoundLiteral (value known) or BoundError (its
// evaluation is a constant failure); anything else depends on the row.
bool IsConstNode(const BoundExprPtr& n) {
  return n->literal() != nullptr ||
         dynamic_cast<const BoundError*>(n.get()) != nullptr;
}

// Folds a node whose children are all constant by evaluating it once
// on a one-row, zero-column batch. Evaluation honors short-circuit
// semantics, so a constant error under a dominated AND/OR branch folds
// away exactly as a row-at-a-time walk would have skipped it.
BoundExprPtr FoldIfConst(BoundExprPtr node, bool children_const) {
  if (!children_const) return node;
  ColumnBatch one_row;
  one_row.physical_rows = 1;
  ColumnVector v;
  const Status st = node->EvaluateVector(one_row, &v);
  if (!st.ok()) return std::make_shared<BoundError>(st);
  return std::make_shared<BoundLiteral>(v.GetValue(0));
}

DataType ArithStaticType(BinaryOp op, const BoundExprPtr& lhs,
                         const BoundExprPtr& rhs) {
  if (op == BinaryOp::kDiv) return DataType::kFloat64;
  return (lhs->static_type() == DataType::kFloat64 ||
          rhs->static_type() == DataType::kFloat64)
             ? DataType::kFloat64
             : DataType::kInt64;
}

DataType FunctionStaticType(FuncId id, const std::vector<BoundExprPtr>& args) {
  switch (id) {
    case FuncId::kSubstr:
    case FuncId::kLower:
    case FuncId::kUpper:
      return DataType::kString;
    case FuncId::kIsNull:
      return DataType::kInt64;
    case FuncId::kAbs:
    case FuncId::kCoalesce:
      return args.empty() ? DataType::kNull : args[0]->static_type();
    default:
      return DataType::kNull;
  }
}

Result<BoundExprPtr> BindImpl(const ExprPtr& expr, const Schema& schema) {
  switch (expr->kind()) {
    case ExprKind::kColumn: {
      const std::string& name = *AsColumnName(*expr);
      SWIFT_ASSIGN_OR_RETURN(std::size_t idx, schema.IndexOf(name));
      return BoundExprPtr(std::make_shared<BoundColumn>(
          idx, name, schema.field(idx).type));
    }
    case ExprKind::kLiteral:
      return BoundExprPtr(std::make_shared<BoundLiteral>(
          *AsLiteralValue(*expr)));
    case ExprKind::kBinary: {
      const BinaryParts parts = *AsBinary(expr);
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr lhs, BindImpl(parts.lhs, schema));
      if (parts.op == BinaryOp::kAnd || parts.op == BinaryOp::kOr) {
        // A dominating constant lhs folds the node before rhs is even
        // bound: row semantics short-circuit past rhs on every row, so
        // rhs must not be able to raise errors here either.
        if (const Value* lv = lhs->literal()) {
          const int lt = Truth(*lv);
          if (parts.op == BinaryOp::kAnd && lt == 0) {
            return BoundExprPtr(
                std::make_shared<BoundLiteral>(Value(int64_t{0})));
          }
          if (parts.op == BinaryOp::kOr && lt == 1) {
            return BoundExprPtr(
                std::make_shared<BoundLiteral>(Value(int64_t{1})));
          }
        }
        SWIFT_ASSIGN_OR_RETURN(BoundExprPtr rhs, BindImpl(parts.rhs, schema));
        const bool both_const = IsConstNode(lhs) && IsConstNode(rhs);
        return FoldIfConst(std::make_shared<BoundAndOr>(
                               parts.op, std::move(lhs), std::move(rhs)),
                           both_const);
      }
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr rhs, BindImpl(parts.rhs, schema));
      const bool both_const = IsConstNode(lhs) && IsConstNode(rhs);
      const bool numeric_children = IsNumericType(lhs->static_type()) &&
                                    IsNumericType(rhs->static_type());
      BoundExprPtr node;
      if (IsArithOp(parts.op) && numeric_children) {
        const DataType t = ArithStaticType(parts.op, lhs, rhs);
        node = std::make_shared<BoundNumericArith>(parts.op, t,
                                                   std::move(lhs),
                                                   std::move(rhs));
      } else if (IsCompareOp(parts.op) && numeric_children) {
        node = std::make_shared<BoundNumericCompare>(parts.op, std::move(lhs),
                                                     std::move(rhs));
      } else {
        const DataType t = IsArithOp(parts.op)
                               ? ArithStaticType(parts.op, lhs, rhs)
                               : DataType::kInt64;
        node = std::make_shared<BoundBinary>(parts.op, t, std::move(lhs),
                                             std::move(rhs));
      }
      return FoldIfConst(std::move(node), both_const);
    }
    case ExprKind::kUnary: {
      const UnaryParts parts = *AsUnary(expr);
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr operand,
                             BindImpl(parts.operand, schema));
      const bool operand_const = IsConstNode(operand);
      const DataType t = parts.op == UnaryOp::kNot ? DataType::kInt64
                                                   : operand->static_type();
      return FoldIfConst(
          std::make_shared<BoundUnary>(parts.op, t, std::move(operand)),
          operand_const);
    }
    case ExprKind::kFunction: {
      const FunctionParts parts = *AsFunction(expr);
      std::vector<BoundExprPtr> args;
      args.reserve(parts.args.size());
      bool all_const = true;
      for (const ExprPtr& a : parts.args) {
        SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, BindImpl(a, schema));
        all_const = all_const && IsConstNode(b);
        args.push_back(std::move(b));
      }
      const FuncId id = expr_eval::ResolveFunction(parts.name);
      const DataType t = FunctionStaticType(id, args);
      return FoldIfConst(std::make_shared<BoundFunction>(id, parts.name, t,
                                                         std::move(args)),
                         all_const);
    }
  }
  return Status::Internal("unhandled expression kind in Bind");
}

}  // namespace

Result<BoundExprPtr> Bind(const ExprPtr& expr, const Schema& schema) {
  if (expr == nullptr) {
    return Status::InvalidArgument("cannot bind a null expression");
  }
  return BindImpl(expr, schema);
}

Result<std::vector<BoundExprPtr>> BindAll(const std::vector<ExprPtr>& exprs,
                                          const Schema& schema) {
  std::vector<BoundExprPtr> out;
  out.reserve(exprs.size());
  for (const ExprPtr& e : exprs) {
    SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(e, schema));
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace swift
