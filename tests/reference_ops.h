// A deliberately naive reference executor for the operator parity
// suites. It works on row Batches with the interpreted Expr::Evaluate,
// groups and matches rows by linear scans under Value::Compare, and
// orders them with std::stable_sort — no KeyEncoder, no hash tables, no
// selection vectors — so it shares no kernel with the engine it checks.
// Inputs must not hold NaN in sort or group keys (Value::Compare is not
// a strict weak order over NaN).

#ifndef SWIFT_TESTS_REFERENCE_OPS_H_
#define SWIFT_TESTS_REFERENCE_OPS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/expression.h"
#include "exec/operators.h"

namespace swift {
namespace ref {

inline Value Eval(const ExprPtr& e, const Schema& schema, const Row& row) {
  Result<Value> v = e->Evaluate(schema, row);
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
    Result<bool> keep = EvaluatePredicate(*pred, in.schema, r);
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

}  // namespace ref
}  // namespace swift

#endif  // SWIFT_TESTS_REFERENCE_OPS_H_
