// Deliberately naive references the engine's tests check it against.
//
//  - A row-at-a-time expression interpreter (ref::Evaluate,
//    ref::Predicate): a tree walk over Expr through the As* accessors
//    with per-row short-circuiting, resolving column names on every
//    row, over boxed Values with its own arithmetic, comparison and
//    function kernels (ref::Arith, ref::Compare, ref::ApplyFunction).
//    It shares only the scalar rules of exec/expr_eval.h (truthiness,
//    wrapping negation, substr's truncation, function names) with
//    BoundExpr::EvaluateVector, the evaluator it checks.
//  - Operators over row Batches (ref::Filter ... ref::Window): groups
//    and matches rows by linear scans under Value::Compare and orders
//    them with std::stable_sort. No KeyEncoder, no hash tables, no
//    selection vectors. Value::Compare is a strict weak order (NaN is
//    one value above +inf, -0.0 equals 0.0), so keys may hold NaN.
//  - A table's rows, boxed a cell at a time out of its store (ref::Rows):
//    the oracle every scan morsel is checked against.
//  - The key encoding, one value at a time (ref::EncodeKey,
//    ref::Decode, ref::HashKey), which KeyEncoder's column-at-a-time
//    EncodeColumns and HashColumns must reproduce for every column rep.

#ifndef SWIFT_TESTS_REFERENCE_OPS_H_
#define SWIFT_TESTS_REFERENCE_OPS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash64.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "exec/expr_eval.h"
#include "exec/expression.h"
#include "exec/key_encoder.h"
#include "exec/operators.h"
#include "exec/table.h"

namespace swift {
namespace ref {

// ---- Tables -----------------------------------------------------------

/// Every row of `t`, one boxed cell at a time.
inline std::vector<Row> Rows(const Table& t) {
  std::vector<Row> out(t.num_rows());
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r].reserve(t.schema.num_fields());
    for (std::size_t c = 0; c < t.schema.num_fields(); ++c) {
      out[r].push_back(t.column(c).GetValue(r));
    }
  }
  return out;
}

// ---- Expressions ------------------------------------------------------

/// +,-,*,/ over non-null operands: int64 op int64 stays int64 (but `/`)
/// and wraps modulo 2^64, anything else computes in double. Non-numeric operands and division
/// by zero are Status::Application.
inline Result<Value> Arith(BinaryOp op, const Value& l, const Value& r) {
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::Application(StrFormat(
        "arithmetic '%s' on non-numeric operands (%s, %s)",
        std::string(BinaryOpToString(op)).c_str(), l.ToString().c_str(),
        r.ToString().c_str()));
  }
  if (l.is_int64() && r.is_int64() && op != BinaryOp::kDiv) {
    const int64_t a = l.int64();
    const int64_t b = r.int64();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(expr_eval::AddWrapping(a, b));
      case BinaryOp::kSub:
        return Value(expr_eval::SubWrapping(a, b));
      case BinaryOp::kMul:
        return Value(expr_eval::MulWrapping(a, b));
      default:
        break;
    }
  }
  const double a = l.AsDouble();
  const double b = r.AsDouble();
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
      return Status::Internal("non-arithmetic op in Arith");
  }
}

/// =,<>,<,<=,>,>= over non-null operands under Value::Compare; boolean
/// as int64. Mixed number/string comparison is Status::Application.
inline Result<Value> Compare(BinaryOp op, const Value& l, const Value& r) {
  if ((l.is_numeric() && r.is_string()) || (l.is_string() && r.is_numeric())) {
    return Status::Application(StrFormat(
        "cannot compare %s with %s",
        std::string(DataTypeToString(l.type())).c_str(),
        std::string(DataTypeToString(r.type())).c_str()));
  }
  const int c = l.Compare(r);
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
    case BinaryOp::kGe:
      out = c >= 0;
      break;
    default:
      return Status::Internal("non-comparison op in Compare");
  }
  return Value(static_cast<int64_t>(out ? 1 : 0));
}

/// Inverse of expr_eval::Truth: -1 -> NULL, else int64 0/1.
inline Value FromTruth(int t) {
  if (t < 0) return Value::Null();
  return Value(static_cast<int64_t>(t));
}

/// Applies `id` to one row's evaluated arguments, in this order:
/// NULL-aware functions (is_null, coalesce) first, then NULL
/// propagation, then the rest; kUnknown errors after NULL propagation.
/// `name` is only used for error text.
inline Result<Value> ApplyFunction(expr_eval::FuncId id,
                                   const std::string& name,
                                   const std::vector<Value>& vals) {
  using expr_eval::FuncId;
  if (id == FuncId::kIsNull) {
    if (vals.size() != 1) return Status::Application("is_null(x) expected");
    return Value(static_cast<int64_t>(vals[0].is_null() ? 1 : 0));
  }
  if (id == FuncId::kCoalesce) {
    for (const Value& v : vals) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  for (const Value& v : vals) {
    if (v.is_null()) return Value::Null();
  }
  switch (id) {
    case FuncId::kSubstr: {
      if (vals.size() != 3 || !vals[0].is_string() || !vals[1].is_numeric() ||
          !vals[2].is_numeric()) {
        return Status::Application("substr(str, start, len) expected");
      }
      const std::string& s = vals[0].str();
      int64_t start = expr_eval::TruncToInt64(vals[1].AsDouble());
      int64_t len = expr_eval::TruncToInt64(vals[2].AsDouble());
      if (start < 1) start = 1;
      if (len < 0) len = 0;
      if (static_cast<std::size_t>(start - 1) >= s.size()) {
        return Value(std::string());
      }
      return Value(s.substr(static_cast<std::size_t>(start - 1),
                            static_cast<std::size_t>(len)));
    }
    case FuncId::kLower:
    case FuncId::kUpper: {
      if (vals.size() != 1 || !vals[0].is_string()) {
        return Status::Application(name + "(str) expected");
      }
      std::string s = vals[0].str();
      for (char& c : s) {
        const auto u = static_cast<unsigned char>(c);
        c = static_cast<char>(id == FuncId::kLower ? std::tolower(u)
                                                   : std::toupper(u));
      }
      return Value(std::move(s));
    }
    case FuncId::kAbs: {
      if (vals.size() != 1 || !vals[0].is_numeric()) {
        return Status::Application("abs(x) expected");
      }
      if (vals[0].is_int64()) {
        const int64_t v = vals[0].int64();
        return Value(v < 0 ? expr_eval::NegateWrapping(v) : v);
      }
      return Value(std::fabs(vals[0].float64()));
    }
    default:
      return Status::Application(
          StrFormat("unknown function '%s'", name.c_str()));
  }
}

/// Evaluates `e` against one row of `schema`. Type errors are
/// Status::Application; AND/OR evaluate their rhs only when the lhs did
/// not decide the row.
inline Result<Value> Evaluate(const ExprPtr& e, const Schema& schema,
                              const Row& row) {
  using expr_eval::Truth;
  switch (e->kind()) {
    case ExprKind::kColumn: {
      const std::string& name = *AsColumnName(*e);
      SWIFT_ASSIGN_OR_RETURN(std::size_t idx, schema.IndexOf(name));
      if (idx >= row.size()) {
        return Status::Internal(
            StrFormat("row narrower than schema at column '%s'", name.c_str()));
      }
      return row[idx];
    }
    case ExprKind::kLiteral:
      return *AsLiteralValue(*e);
    case ExprKind::kBinary: {
      const BinaryParts b = *AsBinary(e);
      SWIFT_ASSIGN_OR_RETURN(Value lv, Evaluate(b.lhs, schema, row));
      if (b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr) {
        const bool is_and = b.op == BinaryOp::kAnd;
        const int lt = Truth(lv);
        if (lt == (is_and ? 0 : 1)) return FromTruth(lt);
        SWIFT_ASSIGN_OR_RETURN(Value rv, Evaluate(b.rhs, schema, row));
        const int rt = Truth(rv);
        if (is_and) {
          if (rt == 0) return FromTruth(0);
          return FromTruth((lt == 1 && rt == 1) ? 1 : -1);
        }
        if (rt == 1) return FromTruth(1);
        return FromTruth((lt == 0 && rt == 0) ? 0 : -1);
      }
      SWIFT_ASSIGN_OR_RETURN(Value rv, Evaluate(b.rhs, schema, row));
      if (lv.is_null() || rv.is_null()) return Value::Null();
      switch (b.op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          return Arith(b.op, lv, rv);
        case BinaryOp::kLike:
          if (!lv.is_string() || !rv.is_string()) {
            return Status::Application("LIKE requires string operands");
          }
          return FromTruth(SqlLikeMatch(lv.str(), rv.str()) ? 1 : 0);
        default:
          return Compare(b.op, lv, rv);
      }
    }
    case ExprKind::kUnary: {
      const UnaryParts u = *AsUnary(e);
      SWIFT_ASSIGN_OR_RETURN(Value v, Evaluate(u.operand, schema, row));
      if (v.is_null()) return Value::Null();
      if (u.op == UnaryOp::kNot) return FromTruth(Truth(v) == 1 ? 0 : 1);
      if (!v.is_numeric()) {
        return Status::Application("negation of non-numeric value");
      }
      if (v.is_int64()) return Value(expr_eval::NegateWrapping(v.int64()));
      return Value(-v.float64());
    }
    case ExprKind::kFunction: {
      const FunctionParts f = *AsFunction(e);
      std::vector<Value> vals;
      for (const ExprPtr& a : f.args) {
        SWIFT_ASSIGN_OR_RETURN(Value v, Evaluate(a, schema, row));
        vals.push_back(std::move(v));
      }
      return ApplyFunction(expr_eval::ResolveFunction(f.name), f.name, vals);
    }
  }
  return Status::Internal("unhandled expression kind");
}

/// `e` as a predicate: NULL and false-valued results are false; numeric
/// nonzero and non-empty strings are true.
inline Result<bool> Predicate(const ExprPtr& e, const Schema& schema,
                              const Row& row) {
  SWIFT_ASSIGN_OR_RETURN(Value v, Evaluate(e, schema, row));
  return expr_eval::Truth(v) == 1;
}

inline Value Eval(const ExprPtr& e, const Schema& schema, const Row& row) {
  Result<Value> v = Evaluate(e, schema, row);
  EXPECT_TRUE(v.ok()) << e->ToString() << ": " << v.status().ToString();
  return v.ok() ? *std::move(v) : Value::Null();
}

inline Row EvalAll(const std::vector<ExprPtr>& exprs, const Schema& schema,
                   const Row& row) {
  Row out;
  for (const ExprPtr& e : exprs) out.push_back(Eval(e, schema, row));
  return out;
}

inline bool KeysEqual(const Row& a, const Row& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

inline bool AnyNull(const Row& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

// Lexicographic Value::Compare under per-key directions.
inline int CompareRows(const Row& a, const Row& b,
                       const std::vector<bool>& ascending) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (!ascending[i]) c = -c;
    if (c != 0) return c;
  }
  return 0;
}

inline std::vector<Row> Filter(const Batch& in, const ExprPtr& pred) {
  std::vector<Row> out;
  for (const Row& r : in.rows) {
    Result<bool> keep = Predicate(pred, in.schema, r);
    EXPECT_TRUE(keep.ok()) << keep.status().ToString();
    if (keep.ok() && *keep) out.push_back(r);
  }
  return out;
}

inline std::vector<Row> Project(const Batch& in,
                                const std::vector<ExprPtr>& exprs) {
  std::vector<Row> out;
  for (const Row& r : in.rows) out.push_back(EvalAll(exprs, in.schema, r));
  return out;
}

inline std::vector<Row> Sort(const Batch& in, const std::vector<SortKey>& keys) {
  std::vector<ExprPtr> exprs;
  std::vector<bool> asc;
  for (const SortKey& k : keys) {
    exprs.push_back(k.expr);
    asc.push_back(k.ascending);
  }
  std::vector<std::pair<Row, Row>> rows;  // (sort key, row)
  for (const Row& r : in.rows) rows.push_back({EvalAll(exprs, in.schema, r), r});
  std::stable_sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    return CompareRows(a.first, b.first, asc) < 0;
  });
  std::vector<Row> out;
  for (auto& [key, row] : rows) out.push_back(std::move(row));
  return out;
}

// Equi-join by nested loops: left rows in order, each followed by its
// matching right rows in order (NULL keys never match); left outer pads
// unmatched left rows. This is the output order of the hash join and,
// over inputs sorted by the keys, of the merge join.
inline std::vector<Row> Join(const Batch& left, const Batch& right,
                             const std::vector<ExprPtr>& lk,
                             const std::vector<ExprPtr>& rk, JoinType type) {
  std::vector<Row> out;
  for (const Row& l : left.rows) {
    const Row lkey = EvalAll(lk, left.schema, l);
    bool matched = false;
    for (const Row& r : right.rows) {
      const Row rkey = EvalAll(rk, right.schema, r);
      if (AnyNull(lkey) || AnyNull(rkey) || !KeysEqual(lkey, rkey)) continue;
      Row o = l;
      o.insert(o.end(), r.begin(), r.end());
      out.push_back(std::move(o));
      matched = true;
    }
    if (!matched && type == JoinType::kLeftOuter) {
      Row o = l;
      o.resize(o.size() + right.schema.num_fields(), Value::Null());
      out.push_back(std::move(o));
    }
  }
  return out;
}

// A float64 value as its class's canonical member
// (expr_eval::CanonicalFloat64); any other value as itself.
inline Value Canonical(Value v) {
  if (v.is_float64()) v = Value(expr_eval::CanonicalFloat64(v.float64()));
  return v;
}

// GROUP BY with groups in first-seen order, each keyed by its first
// row's key with every float64 cell canonical (+0.0 for a zero, one
// quiet NaN); NULL keys form a group and 3 equals 3.0. With no group
// keys there is exactly one group, even over empty input. Over input
// sorted by the keys this is also the StreamedAggregate answer.
inline std::vector<Row> Aggregate(const Batch& in,
                                  const std::vector<ExprPtr>& groups,
                                  const std::vector<AggSpec>& aggs) {
  std::vector<Row> keys;
  std::vector<std::vector<Row>> members;
  if (groups.empty()) {
    keys.push_back(Row{});
    members.emplace_back();
  }
  for (const Row& r : in.rows) {
    const Row key = EvalAll(groups, in.schema, r);
    std::size_t g = 0;
    while (g < keys.size() && !KeysEqual(keys[g], key)) ++g;
    if (g == keys.size()) {
      keys.push_back(key);
      members.emplace_back();
    }
    members[g].push_back(r);
  }
  std::vector<Row> out;
  for (std::size_t g = 0; g < keys.size(); ++g) {
    Row o;
    for (const Value& k : keys[g]) o.push_back(Canonical(k));
    for (const AggSpec& a : aggs) {
      std::vector<Value> vals;  // non-NULL argument values, in row order
      for (const Row& r : members[g]) {
        Value v = a.arg == nullptr ? Value(int64_t{1}) : Eval(a.arg, in.schema, r);
        if (!v.is_null()) vals.push_back(std::move(v));
      }
      double sum = 0.0;
      int64_t sum_i64 = 0;  // an all-int64 SUM is exact and wraps
      bool all_int = true;
      for (const Value& v : vals) {
        if (v.is_numeric()) sum += v.AsDouble();
        if (v.is_int64()) {
          sum_i64 = expr_eval::AddWrapping(sum_i64, v.int64());
        } else {
          all_int = false;
        }
      }
      switch (a.kind) {
        case AggKind::kCount:
          o.push_back(Value(static_cast<int64_t>(vals.size())));
          break;
        case AggKind::kSum:
          o.push_back(vals.empty() ? Value::Null()
                      : all_int    ? Value(sum_i64)
                                   : Value(sum));
          break;
        case AggKind::kAvg:
          o.push_back(vals.empty()
                          ? Value::Null()
                          : Value(sum / static_cast<double>(vals.size())));
          break;
        case AggKind::kMin:
        case AggKind::kMax: {
          Value best;
          for (const Value& v : vals) {
            const int c = v.Compare(best);
            if (best.is_null() || (a.kind == AggKind::kMin ? c < 0 : c > 0)) {
              best = v;
            }
          }
          o.push_back(Canonical(best));
          break;
        }
      }
    }
    out.push_back(std::move(o));
  }
  return out;
}

// Window function over partitions ordered by their key, rows within a
// partition ordered by `order_by` (stable); kSum is a running sum under
// Aggregate's SUM rule: NULL until a non-NULL value, exact and wrapping
// while every value is an int64.
inline std::vector<Row> Window(const Batch& in,
                               const std::vector<ExprPtr>& partition_by,
                               const std::vector<SortKey>& order_by,
                               WindowFunc func, const ExprPtr& arg) {
  std::vector<SortKey> keys;
  for (const ExprPtr& e : partition_by) keys.push_back({e, true});
  keys.insert(keys.end(), order_by.begin(), order_by.end());
  Batch sorted;
  sorted.schema = in.schema;
  sorted.rows = Sort(in, keys);
  std::vector<ExprPtr> order_exprs;
  for (const SortKey& k : order_by) order_exprs.push_back(k.expr);
  std::vector<Row> out;
  Row prev_part, prev_order;
  int64_t row_number = 0, rank = 0;
  double running = 0.0;
  int64_t running_i64 = 0, summed = 0;
  bool all_int = true;
  for (const Row& r : sorted.rows) {
    const Row part = EvalAll(partition_by, in.schema, r);
    const Row order = EvalAll(order_exprs, in.schema, r);
    if (out.empty() || !KeysEqual(part, prev_part)) {
      row_number = 0;
      running = 0.0;
      running_i64 = 0;
      summed = 0;
      all_int = true;
      prev_order.clear();
    }
    ++row_number;
    if (row_number == 1 || !KeysEqual(order, prev_order)) rank = row_number;
    Row o = r;
    if (func == WindowFunc::kSum) {
      const Value v = Eval(arg, in.schema, r);
      if (!v.is_null()) {
        ++summed;
        running += v.AsDouble();
        if (v.is_int64()) {
          running_i64 = expr_eval::AddWrapping(running_i64, v.int64());
        } else {
          all_int = false;
        }
      }
      o.push_back(summed == 0 ? Value::Null()
                  : all_int   ? Value(running_i64)
                              : Value(running));
    } else {
      o.push_back(Value(func == WindowFunc::kRank ? rank : row_number));
    }
    out.push_back(std::move(o));
    prev_part = part;
    prev_order = order;
  }
  return out;
}

// ---- Key encoding -----------------------------------------------------

// Tag and payload of a non-string value: an integral double in int64
// range is encoded as that int64 (3.0 == 3, -0.0 == 0) and every NaN as
// one canonical quiet NaN.
inline std::pair<uint8_t, uint64_t> KeyTagBits(const Value& v) {
  if (v.is_null()) return {KeyEncoder::kTagNull, 0};
  if (v.is_int64()) {
    return {KeyEncoder::kTagInt64, static_cast<uint64_t>(v.int64())};
  }
  const double d = v.float64();
  if (std::isnan(d)) return {KeyEncoder::kTagFloat64, 0x7ff8000000000000ULL};
  if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
      static_cast<double>(static_cast<int64_t>(d)) == d) {
    return {KeyEncoder::kTagInt64,
            static_cast<uint64_t>(static_cast<int64_t>(d))};
  }
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return {KeyEncoder::kTagFloat64, bits};
}

inline void AppendLittleEndian(uint64_t bits, int bytes, std::string* out) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(bits >> (8 * i)));
  }
}

/// The KeyEncoder bytes of one key row, built a value at a time.
inline std::string EncodeKey(const Row& key) {
  std::string out;
  for (const Value& v : key) {
    if (v.is_string()) {
      out.push_back(static_cast<char>(KeyEncoder::kTagString));
      AppendLittleEndian(v.str().size(), 4, &out);
      out += v.str();
      continue;
    }
    const auto [tag, bits] = KeyTagBits(v);
    out.push_back(static_cast<char>(tag));
    if (tag != KeyEncoder::kTagNull) AppendLittleEndian(bits, 8, &out);
  }
  return out;
}

/// KeyEncoder::HashColumns of one key row.
inline uint64_t HashKey(const Row& key) {
  uint64_t h = 0x58a3b1c96f0d2e47ULL;
  for (const Value& v : key) {
    uint64_t tag;
    uint64_t bits;
    if (v.is_string()) {
      tag = KeyEncoder::kTagString;
      bits = Hash64(v.str());
    } else {
      std::tie(tag, bits) = KeyTagBits(v);
    }
    h = hash_internal::Mum(h ^ (bits + tag * 0x9E3779B97F4A7C15ULL),
                           hash_internal::kSecret2);
  }
  return h;
}

inline uint64_t ReadLittleEndian(const char* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// Inverse of EncodeKey. Values decode to their normalized form (an
/// integral float64 comes back as int64); truncated input or an unknown
/// tag is InvalidArgument.
inline Result<Row> Decode(std::string_view encoded) {
  Row out;
  std::size_t pos = 0;
  while (pos < encoded.size()) {
    const uint8_t tag = static_cast<uint8_t>(encoded[pos++]);
    switch (tag) {
      case KeyEncoder::kTagNull:
        out.push_back(Value::Null());
        break;
      case KeyEncoder::kTagInt64: {
        if (encoded.size() - pos < 8) {
          return Status::InvalidArgument("truncated int64 key column");
        }
        const uint64_t bits = ReadLittleEndian(encoded.data() + pos, 8);
        out.push_back(Value(static_cast<int64_t>(bits)));
        pos += 8;
        break;
      }
      case KeyEncoder::kTagFloat64: {
        if (encoded.size() - pos < 8) {
          return Status::InvalidArgument("truncated float64 key column");
        }
        const uint64_t bits = ReadLittleEndian(encoded.data() + pos, 8);
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        out.push_back(Value(d));
        pos += 8;
        break;
      }
      case KeyEncoder::kTagString: {
        if (encoded.size() - pos < 4) {
          return Status::InvalidArgument("truncated string length prefix");
        }
        const uint64_t len = ReadLittleEndian(encoded.data() + pos, 4);
        pos += 4;
        if (encoded.size() - pos < len) {
          return Status::InvalidArgument("truncated string key column");
        }
        out.push_back(Value(std::string(encoded.substr(pos, len))));
        pos += len;
        break;
      }
      default:
        return Status::InvalidArgument("unknown key column tag");
    }
  }
  return out;
}

}  // namespace ref
}  // namespace swift

#endif  // SWIFT_TESTS_REFERENCE_OPS_H_
