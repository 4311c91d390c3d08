#include "exec/bound_expr.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "exec/column_batch.h"
#include "exec/expr_eval.h"

namespace swift {

namespace {

using expr_eval::FuncId;
using expr_eval::Truth;

bool IsNumericType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kFloat64;
}

// The checker's operand classes: an all-NULL (kNull) operand fits both.
bool NumericOrNull(DataType t) {
  return t == DataType::kNull || IsNumericType(t);
}
bool StringOrNull(DataType t) {
  return t == DataType::kNull || t == DataType::kString;
}

Status TypeError(const ExprPtr& expr, const std::string& why) {
  return Status::InvalidArgument(StrFormat(
      "type error in %s: %s", expr->ToString().c_str(), why.c_str()));
}

std::string TypeName(DataType t) { return std::string(DataTypeToString(t)); }

// Whether a three-way comparison result `c` (-1/0/1) satisfies `op`.
constexpr bool CompareHolds(BinaryOp op, int c) {
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

// n NULLs of type `t`: a NULL literal, or a node whose operand is an
// all-NULL (kNull) column, so every result cell is NULL.
void AppendAllNull(DataType t, std::size_t n, ColumnVector* out) {
  *out = ColumnVector::OfType(t);
  out->Reserve(n);
  for (std::size_t i = 0; i < n; ++i) out->AppendNull();
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

// Row addressing of a kernel operand: row i of the operand is cell
// rows(i) of its column.
struct DenseRows {
  std::size_t operator()(std::size_t i) const { return i; }
};
struct SelectedRows {
  const uint32_t* sel;
  std::size_t operator()(std::size_t i) const { return sel[i]; }
};
struct ScalarRow {
  std::size_t operator()(std::size_t) const { return 0; }
};

// One kernel operand, read where its values already are: a plain column
// of the input in place, through the input's selection; a literal as its
// one-cell column, which every row reads; any other subtree evaluated
// once into an owned dense column. Valid while the input batch and the
// expression live.
class Operand {
 public:
  Operand() = default;
  Operand(const Operand&) = delete;
  Operand& operator=(const Operand&) = delete;

  Status Read(const BoundExpr& e, const ColumnBatch& in) {
    sel_ = nullptr;
    scalar_ = false;
    if (const ColumnVector* c = e.InputColumn(in)) {
      col_ = c;
      if (in.selection) sel_ = in.selection->data();
      return Status::OK();
    }
    if (const ColumnVector* cell = e.scalar_cell()) {
      col_ = cell;
      scalar_ = true;
      return Status::OK();
    }
    SWIFT_RETURN_NOT_OK(e.EvaluateVector(in, &owned_));
    col_ = &owned_;
    return Status::OK();
  }

  const ColumnVector& col() const { return *col_; }
  // Column cell of row i.
  std::size_t Phys(std::size_t i) const {
    return scalar_ ? 0 : (sel_ != nullptr ? sel_[i] : i);
  }
  bool IsNull(std::size_t i) const { return col_->IsNull(Phys(i)); }
  int64_t Int64At(std::size_t i) const { return col_->Int64At(Phys(i)); }
  double Float64At(std::size_t i) const { return col_->Float64At(Phys(i)); }
  std::string_view StrAt(std::size_t i) const { return col_->StrAt(Phys(i)); }

  // Calls f with this operand's row addressing (DenseRows, SelectedRows
  // or ScalarRow), so a kernel loop compiles once per operand shape.
  template <typename F>
  void VisitRows(F&& f) const {
    if (scalar_) {
      f(ScalarRow{});
    } else if (sel_ != nullptr) {
      f(SelectedRows{sel_});
    } else {
      f(DenseRows{});
    }
  }

 private:
  const ColumnVector* col_ = nullptr;
  const uint32_t* sel_ = nullptr;
  bool scalar_ = false;
  ColumnVector owned_;
};

// Sizes `out` to n all-valid cells of the fixed-width `rep` (keeping its
// storage when it already has that rep) for a kernel to write.
void ResetFixedWidth(ColumnRep rep, std::size_t n, ColumnVector* out) {
  if (out->rep() != rep) *out = ColumnVector();
  out->ResizeFixedWidth(rep, n);
}

// A kernel output's validity, marked row by row; Install gives the
// column its bitmap (none when no row was NULL).
class NullBits {
 public:
  explicit NullBits(std::size_t n) : n_(n) {}

  void Set(std::size_t i) {
    if (bits_.empty()) bits_.assign((n_ + 7) / 8, 0xFF);
    bits_[i >> 3] = static_cast<uint8_t>(bits_[i >> 3] & ~(1u << (i & 7)));
    ++count_;
  }

  void Install(ColumnVector* out) {
    if (count_ != 0) out->SetValidity(std::move(bits_), count_);
  }

 private:
  std::size_t n_;
  std::size_t count_ = 0;
  std::vector<uint8_t> bits_;
};

// Makes row i of the fixed-width output `values` NULL (its slot 0)
// wherever operand `a`, or `b` when given, is NULL on row i.
template <typename T>
void PropagateNulls(const Operand& a, const Operand* b, std::size_t n,
                    T* values, ColumnVector* out) {
  if (!a.col().has_nulls() && (b == nullptr || !b->col().has_nulls())) return;
  NullBits nulls(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (a.IsNull(i) || (b != nullptr && b->IsNull(i))) {
      values[i] = T{};
      nulls.Set(i);
    }
  }
  nulls.Install(out);
}

class BoundColumn final : public BoundExpr {
 public:
  BoundColumn(std::size_t idx, std::string name, DataType t)
      : BoundExpr(t), idx_(idx), name_(std::move(name)) {}

  // Kernels read a column operand in place (Operand); this copy runs
  // only where the column is an output of its own (a projection, or a
  // key that cannot be read in place).
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
    *out = ColumnVector::OfType(static_type_);
    out->AppendSelected(src, in.selection->data(), in.selection->size());
    return Status::OK();
  }

  std::optional<std::size_t> column_ordinal() const override { return idx_; }

 private:
  std::size_t idx_;
  std::string name_;
};

// A literal, or a folded constant subtree: `t` is the subtree's type,
// which a folded NULL keeps, so its column has that rep too. Kernels
// read it as its one-cell column (scalar_cell); EvaluateVector
// broadcasts it only where it is an output of its own.
class BoundLiteral final : public BoundExpr {
 public:
  explicit BoundLiteral(Value v) : BoundLiteral(v.type(), std::move(v)) {}
  BoundLiteral(DataType t, Value v)
      : BoundExpr(t), v_(std::move(v)), cell_(ColumnVector::OfType(t)) {
    cell_.Append(v_);
  }

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    // Typed fill: the numeric reps size their storage once and fill it.
    const std::size_t n = in.num_rows();
    switch (v_.type()) {
      case DataType::kNull:
        AppendAllNull(static_type_, n, out);
        break;
      case DataType::kInt64:
        ResetFixedWidth(ColumnRep::kInt64, n, out);
        std::fill_n(out->MutableInt64Data(), n, v_.int64_unchecked());
        break;
      case DataType::kFloat64:
        ResetFixedWidth(ColumnRep::kFloat64, n, out);
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
  const ColumnVector* scalar_cell() const override { return &cell_; }

 private:
  Value v_;
  ColumnVector cell_;
};

// A constant subtree whose evaluation fails (e.g. a literal 1/0): it
// stays an eval-time error, raised by any non-empty batch.
class BoundError final : public BoundExpr {
 public:
  BoundError(DataType t, Status st) : BoundExpr(t), st_(std::move(st)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    if (in.num_rows() == 0) {
      *out = ColumnVector::OfType(static_type_);
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
    Operand lv;
    SWIFT_RETURN_NOT_OK(lv.Read(*lhs_, in));
    const std::size_t n = in.num_rows();
    const int dominant = is_and_ ? 0 : 1;
    Operand rv;
    // Row semantics skip the rhs where the lhs already decided the row
    // (AND: false, OR: true), so an rhs error counts only on an
    // undecided row: on error, re-evaluate the rhs over just those rows.
    // `rv` then holds one value per undecided row, in order.
    const bool narrowed = !rv.Read(*rhs_, in).ok();
    ColumnBatch undecided;
    if (narrowed) {
      undecided.schema = in.schema;
      undecided.columns = in.columns;
      undecided.physical_rows = in.physical_rows;
      std::vector<uint32_t> sel;
      for (std::size_t i = 0; i < n; ++i) {
        if (TruthAt(lv.col(), lv.Phys(i)) != dominant) {
          sel.push_back(static_cast<uint32_t>(in.PhysicalIndex(i)));
        }
      }
      undecided.selection = std::move(sel);
      SWIFT_RETURN_NOT_OK(rv.Read(*rhs_, undecided));
    }
    ResetFixedWidth(ColumnRep::kInt64, n, out);
    int64_t* o = out->MutableInt64Data();
    NullBits nulls(n);
    std::size_t next_undecided = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const int lt = TruthAt(lv.col(), lv.Phys(i));
      int rt = -1;  // irrelevant on a decided row
      if (!narrowed) {
        rt = TruthAt(rv.col(), rv.Phys(i));
      } else if (lt != dominant) {
        rt = TruthAt(rv.col(), rv.Phys(next_undecided++));
      }
      int res;  // Kleene three-valued AND/OR
      if (is_and_) {
        res = (lt == 0 || rt == 0) ? 0 : ((lt == 1 && rt == 1) ? 1 : -1);
      } else {
        res = (lt == 1 || rt == 1) ? 1 : ((lt == 0 && rt == 0) ? 0 : -1);
      }
      if (res < 0) {
        o[i] = 0;
        nulls.Set(i);
      } else {
        o[i] = res;
      }
    }
    nulls.Install(out);
    return Status::OK();
  }

 private:
  bool is_and_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

// Every other binary node (not AND/OR): string comparison and LIKE, and
// the nodes Bind typed with an all-NULL side.
class BoundBinary final : public BoundExpr {
 public:
  BoundBinary(BinaryOp op, DataType t, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(t), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    Operand lv;
    Operand rv;
    SWIFT_RETURN_NOT_OK(lv.Read(*lhs_, in));
    SWIFT_RETURN_NOT_OK(rv.Read(*rhs_, in));
    const std::size_t n = in.num_rows();
    if (lv.col().rep() != ColumnRep::kString ||
        rv.col().rep() != ColumnRep::kString) {
      AppendAllNull(static_type_, n, out);
      return Status::OK();
    }
    // Both sides are strings (so the op compares or is LIKE): compare
    // the heap bytes in place. The string_view order is unsigned
    // byte-wise, as in Value::Compare. A NULL cell is an empty range,
    // so its row is computed harmlessly, then marked NULL.
    ResetFixedWidth(ColumnRep::kInt64, n, out);
    int64_t* o = out->MutableInt64Data();
    const ColumnVector& a = lv.col();
    const ColumnVector& b = rv.col();
    lv.VisitRows([&](auto la) {
      rv.VisitRows([&](auto rb) {
        if (op_ == BinaryOp::kLike) {
          for (std::size_t i = 0; i < n; ++i) {
            o[i] = SqlLikeMatch(a.StrAt(la(i)), b.StrAt(rb(i))) ? 1 : 0;
          }
          return;
        }
        for (std::size_t i = 0; i < n; ++i) {
          o[i] = CompareHolds(op_, a.StrAt(la(i)).compare(b.StrAt(rb(i))))
                     ? 1
                     : 0;
        }
      });
    });
    PropagateNulls(lv, &rv, n, o, out);
    return Status::OK();
  }

 private:
  BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

// An int64 subtree read as float64. Bind wraps the int64 side wherever
// it meets a float64 one (arithmetic, comparison, coalesce) and both
// sides of an int64 division, so every kernel sees operands of one rep.
class BoundPromote final : public BoundExpr {
 public:
  explicit BoundPromote(BoundExprPtr operand)
      : BoundExpr(DataType::kFloat64), operand_(std::move(operand)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    Operand v;
    SWIFT_RETURN_NOT_OK(v.Read(*operand_, in));
    const std::size_t n = in.num_rows();
    ResetFixedWidth(ColumnRep::kFloat64, n, out);
    double* d = out->MutableFloat64Data();
    const int64_t* src = v.col().Int64Data();
    v.VisitRows([&](auto rows) {
      for (std::size_t i = 0; i < n; ++i) {
        d[i] = static_cast<double>(src[rows(i)]);
      }
    });
    PropagateNulls(v, nullptr, n, d, out);
    return Status::OK();
  }

 private:
  BoundExprPtr operand_;
};

// out[i] = f(a[la(i)], b[rb(i)]) for every row: the one loop of every
// numeric binary kernel, compiled per operand shape and operation.
template <typename T, typename U, typename L, typename R, typename F>
void BinaryRows(const T* a, L la, const T* b, R rb, std::size_t n, F f,
                U* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = f(a[la(i)], b[rb(i)]);
}

// Arithmetic over two statically numeric subtrees of one type (Bind
// promotes a mixed pair): one int64 loop, one float64 loop.
class BoundNumericArith final : public BoundExpr {
 public:
  BoundNumericArith(BinaryOp op, DataType t, BoundExprPtr lhs,
                    BoundExprPtr rhs)
      : BoundExpr(t), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    Operand lv;
    Operand rv;
    SWIFT_RETURN_NOT_OK(lv.Read(*lhs_, in));
    SWIFT_RETURN_NOT_OK(rv.Read(*rhs_, in));
    const std::size_t n = in.num_rows();
    if (static_type_ == DataType::kInt64) {  // never `/`: that is float64
      ResetFixedWidth(ColumnRep::kInt64, n, out);
      int64_t* o = out->MutableInt64Data();
      const int64_t* a = lv.col().Int64Data();
      const int64_t* b = rv.col().Int64Data();
      lv.VisitRows([&](auto la) {
        rv.VisitRows([&](auto rb) {
          switch (op_) {
            case BinaryOp::kAdd:
              BinaryRows(a, la, b, rb, n, expr_eval::AddWrapping, o);
              break;
            case BinaryOp::kSub:
              BinaryRows(a, la, b, rb, n, expr_eval::SubWrapping, o);
              break;
            default:
              BinaryRows(a, la, b, rb, n, expr_eval::MulWrapping, o);
              break;
          }
        });
      });
      PropagateNulls(lv, &rv, n, o, out);
      return Status::OK();
    }
    ResetFixedWidth(ColumnRep::kFloat64, n, out);
    double* o = out->MutableFloat64Data();
    const double* a = lv.col().Float64Data();
    const double* b = rv.col().Float64Data();
    bool zero_divisor = false;
    lv.VisitRows([&](auto la) {
      rv.VisitRows([&](auto rb) {
        switch (op_) {
          case BinaryOp::kAdd:
            BinaryRows(a, la, b, rb, n,
                       [](double x, double y) { return x + y; }, o);
            break;
          case BinaryOp::kSub:
            BinaryRows(a, la, b, rb, n,
                       [](double x, double y) { return x - y; }, o);
            break;
          case BinaryOp::kMul:
            BinaryRows(a, la, b, rb, n,
                       [](double x, double y) { return x * y; }, o);
            break;
          default:
            BinaryRows(a, la, b, rb, n,
                       [&](double x, double y) {
                         zero_divisor |= y == 0.0;
                         return y == 0.0 ? 0.0 : x / y;
                       },
                       o);
            break;
        }
      });
    });
    if (zero_divisor) {
      // A zero divisor fails the batch unless its row is NULL (its slot
      // reads 0 too).
      for (std::size_t i = 0; i < n; ++i) {
        if (!lv.IsNull(i) && !rv.IsNull(i) && rv.Float64At(i) == 0.0) {
          return Status::Application("division by zero");
        }
      }
    }
    PropagateNulls(lv, &rv, n, o, out);
    return Status::OK();
  }

 private:
  BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

// The three-way order of two numbers of one type, as Value::Compare
// orders them: exact for int64, expr_eval::CompareFloat64 for float64.
int ThreeWay(int64_t x, int64_t y) { return (x > y) - (x < y); }
int ThreeWay(double x, double y) { return expr_eval::CompareFloat64(x, y); }

// out[i] = whether `kOp` holds between a[la(i)] and b[rb(i)].
template <BinaryOp kOp, typename T, typename L, typename R>
void CompareRowsAs(const T* a, L la, const T* b, R rb, std::size_t n,
                   int64_t* out) {
  BinaryRows(
      a, la, b, rb, n,
      [](T x, T y) -> int64_t { return CompareHolds(kOp, ThreeWay(x, y)); },
      out);
}

// CompareRowsAs with the op resolved once, outside the row loop.
template <typename T, typename L, typename R>
void CompareRows(BinaryOp op, const T* a, L la, const T* b, R rb,
                 std::size_t n, int64_t* out) {
  switch (op) {
    case BinaryOp::kEq:
      return CompareRowsAs<BinaryOp::kEq>(a, la, b, rb, n, out);
    case BinaryOp::kNe:
      return CompareRowsAs<BinaryOp::kNe>(a, la, b, rb, n, out);
    case BinaryOp::kLt:
      return CompareRowsAs<BinaryOp::kLt>(a, la, b, rb, n, out);
    case BinaryOp::kLe:
      return CompareRowsAs<BinaryOp::kLe>(a, la, b, rb, n, out);
    case BinaryOp::kGt:
      return CompareRowsAs<BinaryOp::kGt>(a, la, b, rb, n, out);
    default:
      return CompareRowsAs<BinaryOp::kGe>(a, la, b, rb, n, out);
  }
}

// Comparison of two statically numeric subtrees of one type (Bind
// promotes a mixed pair).
class BoundNumericCompare final : public BoundExpr {
 public:
  BoundNumericCompare(BinaryOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : BoundExpr(DataType::kInt64),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    Operand lv;
    Operand rv;
    SWIFT_RETURN_NOT_OK(lv.Read(*lhs_, in));
    SWIFT_RETURN_NOT_OK(rv.Read(*rhs_, in));
    const std::size_t n = in.num_rows();
    ResetFixedWidth(ColumnRep::kInt64, n, out);
    int64_t* o = out->MutableInt64Data();
    const bool ints = lv.col().rep() == ColumnRep::kInt64;
    lv.VisitRows([&](auto la) {
      rv.VisitRows([&](auto rb) {
        if (ints) {
          CompareRows(op_, lv.col().Int64Data(), la, rv.col().Int64Data(), rb,
                      n, o);
        } else {
          CompareRows(op_, lv.col().Float64Data(), la, rv.col().Float64Data(),
                      rb, n, o);
        }
      });
    });
    PropagateNulls(lv, &rv, n, o, out);
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
    Operand v;
    SWIFT_RETURN_NOT_OK(v.Read(*operand_, in));
    const std::size_t n = in.num_rows();
    if (op_ == UnaryOp::kNot) {
      ResetFixedWidth(ColumnRep::kInt64, n, out);
      int64_t* o = out->MutableInt64Data();
      NullBits nulls(n);
      for (std::size_t i = 0; i < n; ++i) {
        const int t = TruthAt(v.col(), v.Phys(i));
        o[i] = t == 0 ? 1 : 0;
        if (t < 0) nulls.Set(i);
      }
      nulls.Install(out);
      return Status::OK();
    }
    if (v.col().rep() == ColumnRep::kInt64) {
      ResetFixedWidth(ColumnRep::kInt64, n, out);
      int64_t* o = out->MutableInt64Data();
      const int64_t* src = v.col().Int64Data();
      v.VisitRows([&](auto rows) {
        for (std::size_t i = 0; i < n; ++i) {
          o[i] = expr_eval::NegateWrapping(src[rows(i)]);
        }
      });
      PropagateNulls(v, nullptr, n, o, out);
      return Status::OK();
    }
    if (v.col().rep() == ColumnRep::kFloat64) {
      ResetFixedWidth(ColumnRep::kFloat64, n, out);
      double* o = out->MutableFloat64Data();
      const double* src = v.col().Float64Data();
      v.VisitRows([&](auto rows) {
        for (std::size_t i = 0; i < n; ++i) o[i] = -src[rows(i)];
      });
      PropagateNulls(v, nullptr, n, o, out);
      return Status::OK();
    }
    AppendAllNull(static_type_, n, out);
    return Status::OK();
  }

 private:
  UnaryOp op_;
  BoundExprPtr operand_;
};

// A numeric cell as a double (pre: rep kInt64 or kFloat64, non-NULL).
double NumberAt(const Operand& c, std::size_t i) {
  return c.col().rep() == ColumnRep::kInt64
             ? static_cast<double>(c.Int64At(i))
             : c.Float64At(i);
}

// Column kernels of the scalar functions, one per FuncId, over argument
// operands of the bound types; each equals the row oracle's function
// (tests/reference_ops.h) applied row by row. NULL propagates except
// through is_null/coalesce.
class BoundFunction final : public BoundExpr {
 public:
  BoundFunction(FuncId id, DataType t, std::vector<BoundExprPtr> args)
      : BoundExpr(t), id_(id), args_(std::move(args)) {}

  Status EvaluateVector(const ColumnBatch& in,
                        ColumnVector* out) const override {
    std::vector<Operand> args(args_.size());
    for (std::size_t a = 0; a < args_.size(); ++a) {
      SWIFT_RETURN_NOT_OK(args[a].Read(*args_[a], in));
    }
    const std::size_t n = in.num_rows();
    *out = ColumnVector::OfType(static_type_);
    switch (id_) {
      case FuncId::kIsNull:
        out->ResizeFixedWidth(ColumnRep::kInt64, n);
        for (std::size_t i = 0; i < n; ++i) {
          out->MutableInt64Data()[i] = args[0].IsNull(i) ? 1 : 0;
        }
        return Status::OK();
      case FuncId::kCoalesce:
        Coalesce(args, n, out);
        return Status::OK();
      case FuncId::kSubstr:
        Substr(args[0], args[1], args[2], n, out);
        return Status::OK();
      case FuncId::kLower:
      case FuncId::kUpper:
        ChangeCase(args[0], n, out);
        return Status::OK();
      case FuncId::kAbs:
        Abs(args[0], n, out);
        return Status::OK();
      case FuncId::kUnknown:
        break;
    }
    return Status::Internal("an unknown function passed Bind");
  }

 private:
  // The first non-NULL argument cell of each row (Bind promoted int64
  // arguments of a float64 coalesce).
  void Coalesce(const std::vector<Operand>& args, std::size_t n,
                ColumnVector* out) const {
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Operand* src = nullptr;
      for (const Operand& a : args) {
        if (!a.IsNull(i)) {
          src = &a;
          break;
        }
      }
      if (src == nullptr) {
        out->AppendNull();
      } else {
        out->AppendFrom(src->col(), src->Phys(i));
      }
    }
  }

  // 1-based start (below 1 counts from 1) and length (below 0 is 0),
  // both truncated toward zero; a start past the end gives "".
  static void Substr(const Operand& str, const Operand& start,
                     const Operand& len, std::size_t n, ColumnVector* out) {
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (str.IsNull(i) || start.IsNull(i) || len.IsNull(i)) {
        out->AppendNull();
        continue;
      }
      const std::string_view s = str.StrAt(i);
      const int64_t from = std::max<int64_t>(
          expr_eval::TruncToInt64(NumberAt(start, i)), 1);
      const int64_t count = std::max<int64_t>(
          expr_eval::TruncToInt64(NumberAt(len, i)), 0);
      const uint64_t pos = static_cast<uint64_t>(from) - 1;
      if (pos >= s.size()) {
        out->AppendString(std::string_view());
      } else {
        out->AppendString(s.substr(pos, static_cast<uint64_t>(count)));
      }
    }
  }

  // Byte-wise std::tolower/std::toupper.
  void ChangeCase(const Operand& str, std::size_t n, ColumnVector* out) const {
    out->Reserve(n);
    std::string buf;
    for (std::size_t i = 0; i < n; ++i) {
      if (str.IsNull(i)) {
        out->AppendNull();
        continue;
      }
      buf.assign(str.StrAt(i));
      for (char& c : buf) {
        const auto u = static_cast<unsigned char>(c);
        c = static_cast<char>(id_ == FuncId::kLower ? std::tolower(u)
                                                    : std::toupper(u));
      }
      out->AppendString(buf);
    }
  }

  // |x| in the argument's type; |INT64_MIN| wraps to itself.
  static void Abs(const Operand& x, std::size_t n, ColumnVector* out) {
    out->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (x.IsNull(i)) {
        out->AppendNull();
      } else if (x.col().rep() == ColumnRep::kInt64) {
        const int64_t v = x.Int64At(i);
        out->AppendInt64(v < 0 ? expr_eval::NegateWrapping(v) : v);
      } else {
        out->AppendFloat64(std::fabs(x.Float64At(i)));
      }
    }
  }

  FuncId id_;
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
  if (!st.ok()) return std::make_shared<BoundError>(node->static_type(), st);
  return std::make_shared<BoundLiteral>(node->static_type(), v.GetValue(0));
}

// `e` read as float64: an int64 node is wrapped in a promotion (folded
// to a float64 literal when constant); any other node is `e` itself.
BoundExprPtr PromoteToFloat64(BoundExprPtr e) {
  if (e->static_type() != DataType::kInt64) return e;
  const bool is_const = IsConstNode(e);
  return FoldIfConst(std::make_shared<BoundPromote>(std::move(e)), is_const);
}

}  // namespace

const ColumnVector* BoundExpr::InputColumn(const ColumnBatch& in) const {
  const std::optional<std::size_t> ord = column_ordinal();
  return ord.has_value() && *ord < in.columns.size() ? &in.columns[*ord]
                                                      : nullptr;
}

Result<DataType> BinaryResultType(const ExprPtr& expr, BinaryOp op,
                                  DataType l, DataType r) {
  const std::string got = TypeName(l) + " and " + TypeName(r);
  const std::string sym(BinaryOpToString(op));
  if (IsArithOp(op)) {
    if (!NumericOrNull(l) || !NumericOrNull(r)) {
      return TypeError(expr, "'" + sym + "' needs numeric operands, got " +
                                 got);
    }
    if (op == BinaryOp::kDiv) return DataType::kFloat64;
    return l == DataType::kFloat64 || r == DataType::kFloat64
               ? DataType::kFloat64
               : DataType::kInt64;
  }
  if (op == BinaryOp::kLike) {
    if (!StringOrNull(l) || !StringOrNull(r)) {
      return TypeError(expr, "'like' needs string operands, got " + got);
    }
    return DataType::kInt64;
  }
  if ((NumericOrNull(l) && NumericOrNull(r)) ||
      (StringOrNull(l) && StringOrNull(r))) {
    return DataType::kInt64;
  }
  return TypeError(expr, "cannot compare " + got + " with '" + sym + "'");
}

namespace {

// The type rules of one function call over bound arguments.
Result<DataType> FunctionType(const ExprPtr& expr, FuncId id,
                              const std::vector<BoundExprPtr>& args) {
  const auto arity = [&](std::size_t n) -> Status {
    if (args.size() == n) return Status::OK();
    return TypeError(expr, StrFormat("expected %zu argument(s), got %zu", n,
                                     args.size()));
  };
  const auto arg = [&](std::size_t i) { return args[i]->static_type(); };
  switch (id) {
    case FuncId::kIsNull:
      SWIFT_RETURN_NOT_OK(arity(1));
      return DataType::kInt64;
    case FuncId::kCoalesce: {
      if (args.empty()) return TypeError(expr, "expected an argument");
      // Every typed argument numeric (promoting int64 to float64), or
      // every one a string.
      DataType t = DataType::kNull;
      for (const BoundExprPtr& a : args) {
        const DataType at = a->static_type();
        if (at == DataType::kNull) continue;
        if (t != DataType::kNull && IsNumericType(t) != IsNumericType(at)) {
          return TypeError(expr, "mixes " + TypeName(t) + " and " +
                                     TypeName(at) + " arguments");
        }
        if (t == DataType::kNull || at == DataType::kFloat64) t = at;
      }
      return t;
    }
    case FuncId::kSubstr:
      SWIFT_RETURN_NOT_OK(arity(3));
      if (!StringOrNull(arg(0)) || !NumericOrNull(arg(1)) ||
          !NumericOrNull(arg(2))) {
        return TypeError(expr, "expected (string, number, number), got (" +
                                   TypeName(arg(0)) + ", " +
                                   TypeName(arg(1)) + ", " +
                                   TypeName(arg(2)) + ")");
      }
      return DataType::kString;
    case FuncId::kLower:
    case FuncId::kUpper:
      SWIFT_RETURN_NOT_OK(arity(1));
      if (!StringOrNull(arg(0))) {
        return TypeError(expr, "expected a string, got " + TypeName(arg(0)));
      }
      return DataType::kString;
    case FuncId::kAbs:
      SWIFT_RETURN_NOT_OK(arity(1));
      if (!NumericOrNull(arg(0))) {
        return TypeError(expr, "expected a number, got " + TypeName(arg(0)));
      }
      return arg(0);
    case FuncId::kUnknown:
      break;
  }
  return TypeError(expr, "unknown function");
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
      SWIFT_ASSIGN_OR_RETURN(
          const DataType t, BinaryResultType(expr, parts.op,
                                             lhs->static_type(),
                                             rhs->static_type()));
      const bool both_const = IsConstNode(lhs) && IsConstNode(rhs);
      const bool numeric_children = IsNumericType(lhs->static_type()) &&
                                    IsNumericType(rhs->static_type());
      if (numeric_children && (IsArithOp(parts.op) || IsCompareOp(parts.op)) &&
          (parts.op == BinaryOp::kDiv ||
           lhs->static_type() != rhs->static_type())) {
        lhs = PromoteToFloat64(std::move(lhs));
        rhs = PromoteToFloat64(std::move(rhs));
      }
      BoundExprPtr node;
      if (IsArithOp(parts.op) && numeric_children) {
        node = std::make_shared<BoundNumericArith>(parts.op, t,
                                                   std::move(lhs),
                                                   std::move(rhs));
      } else if (IsCompareOp(parts.op) && numeric_children) {
        node = std::make_shared<BoundNumericCompare>(parts.op, std::move(lhs),
                                                     std::move(rhs));
      } else {
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
      if (!NumericOrNull(t)) {
        return TypeError(expr, "negation needs a number, got " + TypeName(t));
      }
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
      SWIFT_ASSIGN_OR_RETURN(const DataType t, FunctionType(expr, id, args));
      if (id == FuncId::kCoalesce && t == DataType::kFloat64) {
        for (BoundExprPtr& a : args) a = PromoteToFloat64(std::move(a));
      }
      return FoldIfConst(
          std::make_shared<BoundFunction>(id, t, std::move(args)), all_const);
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
