// Deliberately naive references the engine's tests check it against.
//
//  - A row-at-a-time expression interpreter (ref::Evaluate,
//    ref::Predicate): a tree walk over Expr through the As* accessors
//    with per-row short-circuiting, resolving column names on every
//    row. It shares only the scalar kernels of exec/expr_eval.h with
//    BoundExpr::EvaluateVector, the evaluator it checks.
//  - Operators over row Batches (ref::Filter ... ref::Window): groups
//    and matches rows by linear scans under Value::Compare and orders
//    them with std::stable_sort. No KeyEncoder, no hash tables, no
//    selection vectors. Inputs must not hold NaN in sort or group keys
//    (Value::Compare is not a strict weak order over NaN).
//  - A table's rows, boxed a cell at a time out of its store (ref::Rows),
//    and the column rep converting those rows gives (ref::RepOf): the
//    oracle every scan morsel is checked against.
//  - The key encoding, one value at a time (ref::EncodeKey,
//    ref::Decode, ref::HashKey), which KeyEncoder's column-at-a-time
//    EncodeBatchColumns and HashBatchColumns must reproduce for every
//    column rep.

#ifndef SWIFT_TESTS_REFERENCE_OPS_H_
#define SWIFT_TESTS_REFERENCE_OPS_H_

#include <gtest/gtest.h>

#include <algorithm>
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

/// The ColumnRep a column of `cells` under a field of type `type`
/// converts to: the field's rep when every non-null cell has that type;
/// under a kNull field, kNull when every cell is NULL, else the one type
/// every non-null cell shares; kBoxed otherwise.
inline ColumnRep RepOf(DataType type, const std::vector<Value>& cells) {
  DataType seen = type;
  for (const Value& v : cells) {
    if (v.is_null()) continue;
    if (seen == DataType::kNull) seen = v.type();
    if (v.type() != seen) return ColumnRep::kBoxed;
  }
  return static_cast<ColumnRep>(seen);
}

// ---- Expressions ------------------------------------------------------

/// Evaluates `e` against one row of `schema`. Type errors are
/// Status::Application; AND/OR evaluate their rhs only when the lhs did
/// not decide the row.
inline Result<Value> Evaluate(const ExprPtr& e, const Schema& schema,
                              const Row& row) {
  using expr_eval::FromTruth;
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
          return expr_eval::Arith(b.op, lv, rv);
        case BinaryOp::kLike:
          if (!lv.is_string() || !rv.is_string()) {
            return Status::Application("LIKE requires string operands");
          }
          return FromTruth(SqlLikeMatch(lv.str(), rv.str()) ? 1 : 0);
        default:
          return expr_eval::Compare(b.op, lv, rv);
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
      if (v.is_int64()) return Value(-v.int64());
      return Value(-v.float64());
    }
    case ExprKind::kFunction: {
      const FunctionParts f = *AsFunction(e);
      std::vector<Value> vals;
      for (const ExprPtr& a : f.args) {
        SWIFT_ASSIGN_OR_RETURN(Value v, Evaluate(a, schema, row));
        vals.push_back(std::move(v));
      }
      return expr_eval::ApplyFunction(expr_eval::ResolveFunction(f.name),
                                      f.name, vals);
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

// GROUP BY with groups in first-seen order, each keyed by its first
// row's key; NULL keys form a group and 3 equals 3.0. With no group
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
    Row o = keys[g];
    for (const AggSpec& a : aggs) {
      std::vector<Value> vals;  // non-NULL argument values, in row order
      for (const Row& r : members[g]) {
        Value v = a.arg == nullptr ? Value(int64_t{1}) : Eval(a.arg, in.schema, r);
        if (!v.is_null()) vals.push_back(std::move(v));
      }
      double sum = 0.0;
      bool all_int = true;
      for (const Value& v : vals) {
        if (v.is_numeric()) sum += v.AsDouble();
        if (!v.is_int64()) all_int = false;
      }
      switch (a.kind) {
        case AggKind::kCount:
          o.push_back(Value(static_cast<int64_t>(vals.size())));
          break;
        case AggKind::kSum:
          o.push_back(vals.empty() ? Value::Null()
                      : all_int    ? Value(static_cast<int64_t>(sum))
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
          o.push_back(best);
          break;
        }
      }
    }
    out.push_back(std::move(o));
  }
  return out;
}

// Window function over partitions ordered by their key, rows within a
// partition ordered by `order_by` (stable); kSum is a running sum.
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
  for (const Row& r : sorted.rows) {
    const Row part = EvalAll(partition_by, in.schema, r);
    const Row order = EvalAll(order_exprs, in.schema, r);
    if (out.empty() || !KeysEqual(part, prev_part)) {
      row_number = 0;
      running = 0.0;
      prev_order.clear();
    }
    ++row_number;
    if (row_number == 1 || !KeysEqual(order, prev_order)) rank = row_number;
    Row o = r;
    if (func == WindowFunc::kSum) {
      const Value v = Eval(arg, in.schema, r);
      if (!v.is_null()) running += v.AsDouble();
      o.push_back(Value(running));
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

/// KeyEncoder::HashBatchColumns of one key row.
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
