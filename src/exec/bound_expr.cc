#include "exec/bound_expr.h"

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
using expr_eval::FromTruth;
using expr_eval::FuncId;
using expr_eval::Truth;

bool IsNumericType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kFloat64;
}

// ---- Scalar kernels shared by Evaluate and EvaluateVector -----------
// The row and columnar evaluators must agree bit-for-bit, so the
// non-null scalar tails live here and both paths call them.

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
    bool out = false;
    switch (op) {
      case BinaryOp::kEq:
        out = c == 0;
        break;
      case BinaryOp::kNe:
        out = c != 0;
        break;
      case BinaryOp::kLt:
        out = c < 0;
        break;
      case BinaryOp::kLe:
        out = c <= 0;
        break;
      case BinaryOp::kGt:
        out = c > 0;
        break;
      default:
        out = c >= 0;
        break;
    }
    return Value(static_cast<int64_t>(out ? 1 : 0));
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

class BoundColumn final : public BoundExpr {
 public:
  BoundColumn(std::size_t idx, std::string name, DataType t)
      : BoundExpr(t), idx_(idx), name_(std::move(name)) {}

  Result<Value> Evaluate(const Row& row) const override {
    if (idx_ >= row.size()) {
      return Status::Internal(
          StrFormat("row narrower than schema at column '%s'", name_.c_str()));
    }
    return row[idx_];
  }

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
    const std::vector<uint32_t>& sel = *in.selection;
    out->Reserve(sel.size());
    for (const uint32_t phys : sel) out->AppendFrom(src, phys);
    return Status::OK();
  }

  int64_t column_ordinal() const override {
    return static_cast<int64_t>(idx_);
  }

 private:
  std::size_t idx_;
  std::string name_;
};

class BoundLiteral final : public BoundExpr {
 public:
  explicit BoundLiteral(Value v) : BoundExpr(v.type()), v_(std::move(v)) {}

  Result<Value> Evaluate(const Row&) const override { return v_; }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    *out = ColumnVector::OfType(v_.type());
    const std::size_t n = in.num_rows();
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) out->Append(v_);
    return Status::OK();
  }

  const Value* literal() const override { return &v_; }

 private:
  Value v_;
};

// A constant subtree whose evaluation fails (e.g. a literal 1/0): the
// error stays an eval-time error, exactly as in the interpreted tree.
class BoundError final : public BoundExpr {
 public:
  explicit BoundError(Status st)
      : BoundExpr(DataType::kNull), st_(std::move(st)) {}

  Result<Value> Evaluate(const Row&) const override { return st_; }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    (void)out;
    // A constant error errors on any non-empty batch, like Evaluate().
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

  Result<Value> Evaluate(const Row& row) const override {
    SWIFT_ASSIGN_OR_RETURN(Value lv, lhs_->Evaluate(row));
    const int lt = Truth(lv);
    // Short-circuit on the dominating value.
    if (is_and_ && lt == 0) return Value(int64_t{0});
    if (!is_and_ && lt == 1) return Value(int64_t{1});
    SWIFT_ASSIGN_OR_RETURN(Value rv, rhs_->Evaluate(row));
    const int rt = Truth(rv);
    if (is_and_) {
      if (rt == 0) return Value(int64_t{0});
      return FromTruth((lt == 1 && rt == 1) ? 1 : -1);
    }
    if (rt == 1) return Value(int64_t{1});
    return FromTruth((lt == 0 && rt == 0) ? 0 : -1);
  }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    ColumnVector lv;
    ColumnVector rv;
    // Both operands are evaluated whole-column; if either fails, the
    // batch is re-run row-at-a-time so short-circuiting can suppress
    // errors in dominated positions exactly as Evaluate() does.
    if (!lhs_->EvaluateVector(in, &lv).ok() ||
        !rhs_->EvaluateVector(in, &rv).ok()) {
      return BoundExpr::EvaluateVector(in, out);
    }
    const std::size_t n = in.num_rows();
    *out = ColumnVector::OfType(DataType::kInt64);
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int lt = TruthAt(lv, i);
      const int rt = TruthAt(rv, i);
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

  Result<Value> Evaluate(const Row& row) const override {
    SWIFT_ASSIGN_OR_RETURN(Value lv, lhs_->Evaluate(row));
    SWIFT_ASSIGN_OR_RETURN(Value rv, rhs_->Evaluate(row));
    if (lv.is_null() || rv.is_null()) return Value::Null();
    if (IsArithOp(op_)) return Arith(op_, lv, rv);
    if (IsCompareOp(op_)) return Compare(op_, lv, rv);
    if (op_ == BinaryOp::kLike) {
      if (!lv.is_string() || !rv.is_string()) {
        return Status::Application("LIKE requires string operands");
      }
      return Value(
          static_cast<int64_t>(SqlLikeMatch(lv.str(), rv.str()) ? 1 : 0));
    }
    return Status::Internal("unhandled binary op");
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

  Result<Value> Evaluate(const Row& row) const override {
    SWIFT_ASSIGN_OR_RETURN(Value lv, lhs_->Evaluate(row));
    SWIFT_ASSIGN_OR_RETURN(Value rv, rhs_->Evaluate(row));
    if (lv.is_null() || rv.is_null()) return Value::Null();
    return NumericArithScalar(op_, lv, rv);
  }

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

  Result<Value> Evaluate(const Row& row) const override {
    SWIFT_ASSIGN_OR_RETURN(Value lv, lhs_->Evaluate(row));
    SWIFT_ASSIGN_OR_RETURN(Value rv, rhs_->Evaluate(row));
    if (lv.is_null() || rv.is_null()) return Value::Null();
    return NumericCompareScalar(op_, lv, rv);
  }

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
        bool t = false;
        switch (op_) {
          case BinaryOp::kEq:
            t = c == 0;
            break;
          case BinaryOp::kNe:
            t = c != 0;
            break;
          case BinaryOp::kLt:
            t = c < 0;
            break;
          case BinaryOp::kLe:
            t = c <= 0;
            break;
          case BinaryOp::kGt:
            t = c > 0;
            break;
          default:
            t = c >= 0;
            break;
        }
        out->AppendInt64(t ? 1 : 0);
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

  Result<Value> Evaluate(const Row& row) const override {
    SWIFT_ASSIGN_OR_RETURN(Value v, operand_->Evaluate(row));
    if (v.is_null()) return Value::Null();
    if (op_ == UnaryOp::kNot) {
      return FromTruth(Truth(v) == 1 ? 0 : 1);
    }
    return NegateScalar(v);
  }

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

  Result<Value> Evaluate(const Row& row) const override {
    std::vector<Value> vals;
    vals.reserve(args_.size());
    for (const BoundExprPtr& a : args_) {
      SWIFT_ASSIGN_OR_RETURN(Value v, a->Evaluate(row));
      vals.push_back(std::move(v));
    }
    return expr_eval::ApplyFunction(id_, name_, vals);
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
// against an empty row. Evaluation honors short-circuit semantics, so a
// constant error under a dominated AND/OR branch folds away exactly as
// the interpreter would have skipped it.
BoundExprPtr FoldIfConst(BoundExprPtr node, bool children_const) {
  if (!children_const) return node;
  Result<Value> v = node->Evaluate(Row{});
  if (v.ok()) {
    return std::make_shared<BoundLiteral>(std::move(*v));
  }
  return std::make_shared<BoundError>(v.status());
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
        // bound: the interpreter short-circuits past rhs on every row,
        // so rhs must not be able to raise errors here either.
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

Status BoundExpr::EvaluateVector(const ColumnBatch& in,
                                 ColumnVector* out) const {
  // Generic fallback: box each logical row and evaluate row-at-a-time.
  // Semantics (including short-circuiting and error order) are exactly
  // Evaluate()'s; only the layout differs.
  *out = ColumnVector::OfType(static_type_);
  const std::size_t n = in.num_rows();
  out->Reserve(n);
  Row row;
  for (std::size_t i = 0; i < n; ++i) {
    in.MaterializeRow(i, &row);
    SWIFT_ASSIGN_OR_RETURN(Value v, Evaluate(row));
    out->Append(v);
  }
  return Status::OK();
}

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

Result<bool> EvaluateBoundPredicate(const BoundExpr& expr, const Row& row) {
  SWIFT_ASSIGN_OR_RETURN(Value v, expr.Evaluate(row));
  if (v.is_null()) return false;
  if (v.is_int64()) return v.int64() != 0;
  if (v.is_float64()) return v.float64() != 0.0;
  return !v.str().empty();
}

Status EvalBoundKeys(const std::vector<BoundExprPtr>& keys, const Row& row,
                     Row* key) {
  key->clear();
  key->reserve(keys.size());
  for (const BoundExprPtr& e : keys) {
    SWIFT_ASSIGN_OR_RETURN(Value v, e->Evaluate(row));
    key->push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace swift
