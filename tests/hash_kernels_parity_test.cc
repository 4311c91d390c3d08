// Randomized parity property test: the flat-table hash kernels
// (HashJoinOp / HashAggregateOp / HashPartitioner) against the legacy
// node-based row-map implementations they replaced, kept verbatim here
// as the oracle. Inputs draw int64 / float64 / string key columns with
// NULLs, duplicate keys, cross-numeric-type equal keys (an int64 key
// column joined with a float64 one holding 3 vs 3.0), and
// collision-adversarial strided keys. Runs under the asan/ubsan presets
// like every other test.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "exec/operators.h"
#include "partition_gather.h"
#include "reference_ops.h"

namespace swift {
namespace {

// ---- Legacy oracle: the pre-flat-table row-map kernels ---------------

// The legacy value hash: std::hash of the value (the identity on
// int64), with integral doubles hashed as their int64 so that 3 and 3.0
// collide, as LegacyRowEq requires.
std::size_t LegacyValueHash(const Value& v) {
  if (v.is_null()) return 0x9E3779B9u;
  if (v.is_numeric()) {
    const double d = v.AsDouble();
    const int64_t i = static_cast<int64_t>(d);
    if (static_cast<double>(i) == d) return std::hash<int64_t>{}(i);
    return std::hash<double>{}(d);
  }
  return std::hash<std::string>{}(v.str());
}

std::size_t LegacyHashRow(const Row& row) {
  std::size_t h = 0x84222325u;
  for (const Value& v : row) {
    h ^= LegacyValueHash(v) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

struct LegacyRowHash {
  std::size_t operator()(const Row& r) const { return LegacyHashRow(r); }
};
struct LegacyRowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

bool KeyHasNull(const Row& k) {
  for (const Value& v : k) {
    if (v.is_null()) return true;
  }
  return false;
}

Row EvalKeyRow(const std::vector<ExprPtr>& keys, const Schema& schema,
               const Row& row) {
  Row k;
  k.reserve(keys.size());
  for (const ExprPtr& e : keys) k.push_back(*ref::Evaluate(e, schema, row));
  return k;
}

// The old HashJoinOp::Open body: unordered_multimap build + probe.
std::vector<Row> LegacyHashJoin(const Batch& left, const Batch& right,
                                const std::vector<ExprPtr>& left_keys,
                                const std::vector<ExprPtr>& right_keys,
                                JoinType join_type) {
  std::unordered_multimap<Row, Row, LegacyRowHash, LegacyRowEq> build;
  for (const Row& r : right.rows) {
    Row key = EvalKeyRow(right_keys, right.schema, r);
    if (KeyHasNull(key)) continue;
    build.emplace(std::move(key), r);
  }
  const std::size_t right_width = right.schema.num_fields();
  std::vector<Row> out;
  for (const Row& l : left.rows) {
    Row key = EvalKeyRow(left_keys, left.schema, l);
    bool matched = false;
    if (!KeyHasNull(key)) {
      auto [lo, hi] = build.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        Row o = l;
        o.insert(o.end(), it->second.begin(), it->second.end());
        out.push_back(std::move(o));
        matched = true;
      }
    }
    if (!matched && join_type == JoinType::kLeftOuter) {
      Row o = l;
      o.resize(o.size() + right_width, Value::Null());
      out.push_back(std::move(o));
    }
  }
  return out;
}

// The old HashAggregateOp state machine, verbatim.
struct LegacyAggState {
  double sum = 0.0;
  int64_t count = 0;
  bool all_int = true;
  Value min;
  Value max;

  void Update(AggKind kind, const Value& v) {
    if (kind == AggKind::kCount) {
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
        return ref::Canonical(min);
      case AggKind::kMax:
        return ref::Canonical(max);
      case AggKind::kAvg:
        if (count == 0) return Value::Null();
        return Value(sum / static_cast<double>(count));
    }
    return Value::Null();
  }
};

// The old HashAggregateOp::Open body: Row-keyed unordered_map +
// first-seen key order, each key reported canonical (ref::Canonical).
std::vector<Row> LegacyHashAggregate(const Batch& in,
                                     const std::vector<ExprPtr>& groups,
                                     const std::vector<AggSpec>& aggs) {
  std::unordered_map<Row, std::vector<LegacyAggState>, LegacyRowHash,
                     LegacyRowEq>
      table;
  std::vector<Row> key_order;
  for (const Row& r : in.rows) {
    Row key = EvalKeyRow(groups, in.schema, r);
    auto it = table.find(key);
    if (it == table.end()) {
      it = table.emplace(key, std::vector<LegacyAggState>(aggs.size())).first;
      key_order.push_back(key);
    }
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      Value v = aggs[a].arg == nullptr
                    ? Value(int64_t{1})
                    : *ref::Evaluate(aggs[a].arg, in.schema, r);
      if (aggs[a].kind == AggKind::kCount && v.is_null()) continue;
      it->second[a].Update(aggs[a].kind, v);
    }
  }
  std::vector<Row> out;
  for (const Row& key : key_order) {
    const auto& states = table[key];
    Row o;
    for (const Value& k : key) o.push_back(ref::Canonical(k));
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      o.push_back(states[a].Finish(aggs[a].kind));
    }
    out.push_back(std::move(o));
  }
  return out;
}

// ---- Row multiset comparison ----------------------------------------

// Type-tagged text form so int64 3, float64 3.0, and string "3" stay
// distinct cells when comparing outputs.
std::string CellKey(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return "N";
    case DataType::kInt64:
      return "i" + std::to_string(v.int64());
    case DataType::kFloat64: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "f%.17g", v.float64());
      return buf;
    }
    case DataType::kString:
      return "s" + v.str();
  }
  return "?";
}

std::vector<std::string> RowMultiset(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) {
      s += CellKey(v);
      s.push_back('\x1f');
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- Random input generation ----------------------------------------

// Key values of `type` drawn to force duplicates, cross-type equality
// (k in an int64 column, (double)k in a float64 one), NULLs, and
// collision-adversarial stride patterns.
Value RandomKeyValue(Rng& rng, DataType type) {
  if (rng.Uniform() < 0.15) return Value::Null();
  const int64_t k = rng.UniformInt(-8, 8);
  switch (type) {
    case DataType::kInt64:
      return Value(k * (rng.Bernoulli(0.5) ? 1 : 1024));  // strided
    case DataType::kFloat64:
      // Half integral-valued floats (equal to int64 keys), half
      // fractional.
      return rng.Bernoulli(0.5) ? Value(static_cast<double>(k))
                                : Value(k + 0.5);
    default:
      break;
  }
  static const char* kPool[] = {"", "a", "b", "ab", "3", "key", "KEY"};
  return Value(kPool[rng.UniformInt(0, 6)]);
}

Value RandomPayloadValue(Rng& rng, DataType type) {
  if (rng.Uniform() < 0.1) return Value::Null();
  switch (type) {
    case DataType::kInt64:
      return Value(rng.UniformInt(-1000, 1000));
    case DataType::kFloat64:
      return Value(rng.Uniform(-10.0, 10.0));
    default:
      return Value("p" + std::to_string(rng.UniformInt(0, 99)));
  }
}

DataType RandomNumericType(Rng& rng) {
  return rng.Bernoulli(0.5) ? DataType::kInt64 : DataType::kFloat64;
}

// One type per key column, comparable across the inputs of one trial:
// each is string for every input or numeric for every input, and a
// numeric column is int64 or float64 per input (KeyTypesFor).
std::vector<bool> RandomKeyKinds(Rng& rng, int key_cols) {
  std::vector<bool> numeric;
  for (int c = 0; c < key_cols; ++c) numeric.push_back(rng.Uniform() < 0.7);
  return numeric;
}

std::vector<DataType> KeyTypesFor(Rng& rng, const std::vector<bool>& numeric) {
  std::vector<DataType> types;
  for (const bool n : numeric) {
    types.push_back(n ? RandomNumericType(rng) : DataType::kString);
  }
  return types;
}

// Keys k0.. of `key_types`, then payloads: p0 numeric (SUM/AVG take it),
// the rest of any type.
Batch RandomBatch(Rng& rng, int rows, const std::vector<DataType>& key_types,
                  int payload_cols) {
  Batch b;
  std::vector<Field> fields;
  for (std::size_t c = 0; c < key_types.size(); ++c) {
    fields.push_back({"k" + std::to_string(c), key_types[c]});
  }
  for (int c = 0; c < payload_cols; ++c) {
    const DataType t =
        c == 0 ? RandomNumericType(rng)
               : static_cast<DataType>(rng.UniformInt(1, 3));
    fields.push_back({"p" + std::to_string(c), t});
  }
  b.schema = Schema(std::move(fields));
  for (int i = 0; i < rows; ++i) {
    Row r;
    for (std::size_t c = 0; c < b.schema.num_fields(); ++c) {
      const DataType t = b.schema.field(c).type;
      r.push_back(c < key_types.size() ? RandomKeyValue(rng, t)
                                       : RandomPayloadValue(rng, t));
    }
    b.rows.push_back(std::move(r));
  }
  return b;
}

std::vector<ExprPtr> KeyExprs(int key_cols) {
  std::vector<ExprPtr> keys;
  for (int c = 0; c < key_cols; ++c) {
    keys.push_back(Expr::Column("k" + std::to_string(c)));
  }
  return keys;
}

// GatherPartitions over a row batch, boxed back into rows.
Result<std::vector<Batch>> PartitionRows(const Batch& in,
                                         const std::vector<ExprPtr>& keys,
                                         int n) {
  SWIFT_ASSIGN_OR_RETURN(ColumnBatch cb, ToColumnBatch(in));
  SWIFT_ASSIGN_OR_RETURN(std::vector<ColumnBatch> parts,
                         GatherPartitions(cb, keys, n));
  std::vector<Batch> out;
  for (const ColumnBatch& p : parts) out.push_back(ToRowBatch(p));
  return out;
}

Batch RunOperator(OperatorPtr op) {
  auto out = CollectAll(op.get());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return *out;
}

// ---- Properties ------------------------------------------------------

TEST(HashKernelsParityTest, JoinMatchesLegacyRowMap) {
  Rng rng(0xA11CE5EEDULL);
  for (int trial = 0; trial < 30; ++trial) {
    const int key_cols = 1 + static_cast<int>(rng.UniformInt(0, 1));
    const JoinType jt =
        rng.Bernoulli(0.5) ? JoinType::kInner : JoinType::kLeftOuter;
    const std::vector<bool> kinds = RandomKeyKinds(rng, key_cols);
    const std::vector<DataType> left_types = KeyTypesFor(rng, kinds);
    const std::vector<DataType> right_types = KeyTypesFor(rng, kinds);
    Batch left = RandomBatch(rng, static_cast<int>(rng.UniformInt(0, 120)),
                             left_types, 1);
    Batch right = RandomBatch(rng, static_cast<int>(rng.UniformInt(0, 120)),
                              right_types, 1);
    const std::vector<ExprPtr> keys = KeyExprs(key_cols);

    std::vector<Row> expect = LegacyHashJoin(left, right, keys, keys, jt);
    Batch got = RunOperator(MakeHashJoin(
        MakeBatchSource(left.schema, {left}),
        MakeBatchSource(right.schema, {right}), keys, keys, jt));

    EXPECT_EQ(RowMultiset(got.rows), RowMultiset(expect))
        << "trial " << trial << " join_type "
        << (jt == JoinType::kInner ? "inner" : "left_outer");
    // Probe-side order is preserved exactly for unique-match joins; at
    // minimum the row counts must agree even when duplicate-match
    // emission order differs.
    EXPECT_EQ(got.rows.size(), expect.size());
  }
}

TEST(HashKernelsParityTest, AggregateMatchesLegacyRowMapExactly) {
  Rng rng(0xBEEFCAFEULL);
  for (int trial = 0; trial < 30; ++trial) {
    const int key_cols = 1 + static_cast<int>(rng.UniformInt(0, 1));
    Batch in = RandomBatch(rng, static_cast<int>(rng.UniformInt(0, 300)),
                           KeyTypesFor(rng, RandomKeyKinds(rng, key_cols)),
                           2);
    std::vector<ExprPtr> groups = KeyExprs(key_cols);
    std::vector<std::string> names;
    for (int c = 0; c < key_cols; ++c) names.push_back("k" + std::to_string(c));
    std::vector<AggSpec> aggs = {
        AggSpec{AggKind::kSum, Expr::Column("p0"), "s"},
        AggSpec{AggKind::kCount, Expr::Column("p0"), "c"},
        AggSpec{AggKind::kCount, nullptr, "cstar"},
        AggSpec{AggKind::kMin, Expr::Column("p1"), "mn"},
        AggSpec{AggKind::kMax, Expr::Column("p1"), "mx"},
        AggSpec{AggKind::kAvg, Expr::Column("p0"), "avg"},
    };

    std::vector<Row> expect = LegacyHashAggregate(in, groups, aggs);
    Batch got = RunOperator(MakeHashAggregate(
        MakeBatchSource(in.schema, {in}), groups, names, aggs));

    // Both sides update per-group state in input row order, so the sums
    // are bit-identical, and both emit groups in first-seen order — the
    // comparison is exact, not just multiset.
    ASSERT_EQ(got.rows.size(), expect.size()) << "trial " << trial;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ(got.rows[i].size(), expect[i].size());
      for (std::size_t j = 0; j < expect[i].size(); ++j) {
        EXPECT_EQ(CellKey(got.rows[i][j]), CellKey(expect[i][j]))
            << "trial " << trial << " row " << i << " col " << j;
      }
    }
  }
}

TEST(HashKernelsParityTest, PartitionPreservesRowsAndRoutesNullsToZero) {
  Rng rng(0xD15EA5EULL);
  for (int trial = 0; trial < 20; ++trial) {
    const int key_cols = 1 + static_cast<int>(rng.UniformInt(0, 1));
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 15));
    Batch in = RandomBatch(rng, static_cast<int>(rng.UniformInt(0, 400)),
                           KeyTypesFor(rng, RandomKeyKinds(rng, key_cols)),
                           1);
    const std::vector<ExprPtr> keys = KeyExprs(key_cols);

    auto parts = PartitionRows(in, keys, n);
    ASSERT_TRUE(parts.ok());
    // Row conservation: partitions are a permutation of the input.
    std::vector<Row> all;
    for (const Batch& p : *parts) {
      all.insert(all.end(), p.rows.begin(), p.rows.end());
    }
    EXPECT_EQ(RowMultiset(all), RowMultiset(in.rows)) << "trial " << trial;

    // NULL-keyed rows all land in partition 0; equal keys land together.
    for (int p = 0; p < n; ++p) {
      for (const Row& r : (*parts)[p].rows) {
        Row key = EvalKeyRow(keys, in.schema, r);
        if (KeyHasNull(key)) {
          EXPECT_EQ(p, 0) << "NULL key escaped partition 0";
        }
      }
    }
    // Determinism: a second run routes every row identically.
    auto parts2 = PartitionRows(in, keys, n);
    ASSERT_TRUE(parts2.ok());
    for (int p = 0; p < n; ++p) {
      EXPECT_EQ(RowMultiset((*parts)[p].rows), RowMultiset((*parts2)[p].rows));
    }
  }
}

// Cross-numeric-type keys: an int64 key column keyed 3 and a float64
// one keyed 3.0 must join with each other, and int64 cells loaded under
// a float64 key field (widened) aggregate into one group with the
// floats, -0.0 with 0, exactly like the legacy Compare()-based maps.
TEST(HashKernelsParityTest, CrossNumericTypeKeysShareOneGroup) {
  Batch ints;
  ints.schema = Schema({{"k0", DataType::kInt64}, {"p0", DataType::kInt64}});
  ints.rows = {{Value(int64_t{3}), Value(int64_t{1})},
               {Value(int64_t{3}), Value(int64_t{100})},
               {Value(int64_t{0}), Value(int64_t{70})}};
  Batch floats;
  floats.schema =
      Schema({{"k0", DataType::kFloat64}, {"p0", DataType::kInt64}});
  floats.rows = {{Value(int64_t{3}), Value(int64_t{1})},
                 {Value(3.0), Value(int64_t{10})},
                 {Value(int64_t{3}), Value(int64_t{100})},
                 {Value(-0.0), Value(int64_t{7})},
                 {Value(int64_t{0}), Value(int64_t{70})}};
  const std::vector<ExprPtr> keys = {Expr::Column("k0")};

  std::vector<AggSpec> aggs = {AggSpec{AggKind::kSum, Expr::Column("p0"), "s"}};
  Result<ColumnBatch> widened = ToColumnBatch(floats);
  ASSERT_TRUE(widened.ok()) << widened.status().ToString();
  std::vector<Row> expect =
      LegacyHashAggregate(ToRowBatch(*widened), keys, aggs);
  Batch got = RunOperator(MakeHashAggregate(
      MakeBatchSource(floats.schema, {floats}), keys, {"k0"}, aggs));
  ASSERT_EQ(got.rows.size(), 2u);
  EXPECT_EQ(RowMultiset(got.rows), RowMultiset(expect));
  EXPECT_EQ(got.rows[0][1].int64(), 111);  // 3-group, first seen
  EXPECT_EQ(got.rows[1][1].int64(), 77);   // 0-group

  Batch joined = RunOperator(MakeHashJoin(
      MakeBatchSource(ints.schema, {ints}),
      MakeBatchSource(floats.schema, {floats}), keys, keys,
      JoinType::kInner));
  std::vector<Row> jexpect = LegacyHashJoin(ints, ToRowBatch(*widened), keys,
                                            keys, JoinType::kInner);
  EXPECT_EQ(joined.rows.size(), 8u);  // 2x3 for the 3-group + 1x2 for 0
  EXPECT_EQ(RowMultiset(joined.rows), RowMultiset(jexpect));
}

TEST(HashPartitionSkewTest, LegacyIdentityHashStripesOnStridedKeys) {
  // Documents the pathology the mixer fixes: the legacy hash (identity
  // on int64) mod 16 maps stride-16 keys to a single partition.
  std::set<std::size_t> used;
  for (int64_t i = 0; i < 1000; ++i) {
    used.insert(LegacyHashRow({Value(i * 16)}) % 16);
  }
  EXPECT_EQ(used.size(), 1u);
}

}  // namespace
}  // namespace swift
