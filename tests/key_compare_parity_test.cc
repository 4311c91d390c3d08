// Key order parity suite (ctest label vec_smoke).
//
// MergeJoin, StreamedAggregate and Window order and group rows through
// one comparator resolved per key batch (typed int64, float64 and
// string compares for NULL-free columns, CompareCells otherwise), and
// SortOp sorts through SortPermutation: order-preserving encoded keys,
// radix-sorted. Every answer must stay the one Value::Compare gives, so
// each operator is checked against the naive executor of
// reference_ops.h over int64, float64 and string keys with NULLs, ties
// (stability), DESC, multi-key mixed reps, -0.0 vs 0.0, NaN and
// INT64_MIN/INT64_MAX; SortKernelParityTest aims at the encoder's edges
// (full int64 range with NULLs, infinities, denormals and NaNs of both
// signs, embedded NUL bytes, strings past the encoder's cap, kNull keys,
// tiny batches, every direction mix). KeyCompareNaNTest spells the NaN
// order out: SortOp equals std::stable_sort under Value::Compare, and
// StreamedAggregate closes one group for every NaN, whatever its sign
// or payload, after +inf.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/morsel.h"
#include "exec/operators.h"
#include "reference_ops.h"
#include "sliced_source.h"

namespace swift {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

bool ValueBitEq(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_float64()) {
    const double x = a.float64(), y = b.float64();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a.Compare(b) == 0;
}

void ExpectRowsBitEq(const std::vector<Row>& got, const std::vector<Row>& want,
                     const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << ctx << " row " << r;
    for (std::size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_TRUE(ValueBitEq(got[r][c], want[r][c]))
          << ctx << " row " << r << " col " << c << ": got "
          << got[r][c].ToString() << ", want " << want[r][c].ToString();
    }
  }
}

Schema KeySchema() {
  return Schema({{"id", DataType::kInt64},   // row number: shows stability
                 {"i", DataType::kInt64},    // NULLs, ties, INT64 extremes
                 {"j", DataType::kInt64},    // no NULLs
                 {"f", DataType::kFloat64},  // NULLs, ties, -0.0 vs 0.0, NaN
                 {"g", DataType::kFloat64},  // no NULLs, -0.0 vs 0.0, NaN
                 {"s", DataType::kString},   // NULLs, ties, empty strings
                 {"t", DataType::kString}}); // no NULLs
}

// Few distinct values per key, so ties are everywhere.
Batch KeyBatch(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  Batch b;
  b.schema = KeySchema();
  const int64_t ints[] = {kMin, -3, 0, 2, 7, kMax};
  const double floats[] = {-0.0,  0.0,     -1.5,
                           2.0,   1e300,   -1e-300,
                           std::numeric_limits<double>::quiet_NaN()};
  const char* strs[] = {"", "a", "ab", "b", "ba"};
  auto pick = [&](int64_t hi) { return rng.UniformInt(0, hi); };
  for (std::size_t r = 0; r < n; ++r) {
    Row row;
    row.push_back(Value(static_cast<int64_t>(r)));
    row.push_back(pick(6) == 0 ? Value::Null() : Value(ints[pick(5)]));
    row.push_back(Value(ints[pick(5)]));
    row.push_back(pick(6) == 0 ? Value::Null() : Value(floats[pick(6)]));
    row.push_back(Value(floats[pick(6)]));
    row.push_back(pick(6) == 0 ? Value::Null()
                               : Value(std::string(strs[pick(4)])));
    row.push_back(Value(std::string(strs[pick(4)])));
    b.rows.push_back(std::move(row));
  }
  return b;
}

// `b` as 9-row morsels, so the operators concatenate their input.
OperatorPtr Source(const Batch& b) {
  Result<ColumnBatch> cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok());
  std::vector<ColumnBatch> batches;
  batches.push_back(*std::move(cb));
  return MakeSlicedSource(b.schema, std::move(batches), 9);
}

std::vector<Row> Collect(OperatorPtr op) {
  Result<Batch> out = CollectAll(op.get());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? out->rows : std::vector<Row>{};
}

std::vector<SortKey> Keys(const std::vector<std::pair<std::string, bool>>& ks) {
  std::vector<SortKey> out;
  for (const auto& [name, asc] : ks) out.push_back({Expr::Column(name), asc});
  return out;
}

std::vector<ExprPtr> Exprs(const std::vector<SortKey>& keys) {
  std::vector<ExprPtr> out;
  for (const SortKey& k : keys) out.push_back(k.expr);
  return out;
}

const std::vector<std::vector<std::pair<std::string, bool>>>& KeySets() {
  static const std::vector<std::vector<std::pair<std::string, bool>>> sets = {
      {{"i", true}},
      {{"i", false}},
      {{"j", true}},
      {{"j", false}},
      {{"f", true}},
      {{"f", false}},
      {{"g", true}},
      {{"g", false}},
      {{"s", true}},
      {{"t", false}},
      {{"s", false}, {"i", true}},
      {{"t", true}, {"g", false}, {"j", true}},
      {{"f", true}, {"s", true}, {"i", false}},
  };
  return sets;
}

std::string Describe(const std::vector<std::pair<std::string, bool>>& ks) {
  std::string out;
  for (const auto& [name, asc] : ks) out += name + (asc ? "+" : "-") + " ";
  return out;
}

class KeyCompareParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyCompareParityTest, SortMatchesReference) {
  const Batch b = KeyBatch(300, GetParam());
  for (const auto& ks : KeySets()) {
    const std::vector<SortKey> keys = Keys(ks);
    ExpectRowsBitEq(Collect(MakeSort(Source(b), keys)), ref::Sort(b, keys),
                    "sort " + Describe(ks));
  }
}

TEST_P(KeyCompareParityTest, MergeJoinMatchesReference) {
  const Batch left = KeyBatch(120, GetParam());
  const Batch right = KeyBatch(90, GetParam() + 1000);
  std::vector<std::vector<std::pair<std::string, bool>>> sets;
  for (const auto& ks : KeySets()) {
    bool asc = true;
    for (const auto& k : ks) asc = asc && k.second;
    if (asc) sets.push_back(ks);
  }
  for (const auto& ks : sets) {
    const std::vector<SortKey> keys = Keys(ks);
    const std::vector<ExprPtr> exprs = Exprs(keys);
    for (const JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
      Batch ls, rs;
      ls.schema = rs.schema = left.schema;
      ls.rows = ref::Sort(left, keys);
      rs.rows = ref::Sort(right, keys);
      ExpectRowsBitEq(
          Collect(MakeMergeJoin(MakeSort(Source(left), keys),
                                MakeSort(Source(right), keys), exprs, exprs,
                                type)),
          ref::Join(ls, rs, exprs, exprs, type), "merge join " + Describe(ks));
    }
  }
  // Mixed reps across the sides: int64 keys on the left, float64 on the
  // right (-0.0 and 0.0 both match 0).
  const std::vector<SortKey> lk = Keys({{"j", true}});
  const std::vector<SortKey> rk = Keys({{"g", true}});
  Batch ls, rs;
  ls.schema = rs.schema = left.schema;
  ls.rows = ref::Sort(left, lk);
  rs.rows = ref::Sort(right, rk);
  ExpectRowsBitEq(
      Collect(MakeMergeJoin(MakeSort(Source(left), lk),
                            MakeSort(Source(right), rk), Exprs(lk), Exprs(rk),
                            JoinType::kLeftOuter)),
      ref::Join(ls, rs, Exprs(lk), Exprs(rk), JoinType::kLeftOuter),
      "merge join int64 vs float64");
}

TEST_P(KeyCompareParityTest, StreamedAggregateMatchesReference) {
  const Batch b = KeyBatch(300, GetParam());
  const std::vector<AggSpec> aggs = {
      {AggKind::kCount, nullptr, "n"},
      {AggKind::kMin, Expr::Column("id"), "first"},
      {AggKind::kSum, Expr::Column("g"), "sg"}};
  for (const auto& ks : KeySets()) {
    std::vector<SortKey> keys = Keys(ks);
    for (SortKey& k : keys) k.ascending = true;
    const std::vector<ExprPtr> groups = Exprs(keys);
    std::vector<std::string> names;
    for (const auto& k : ks) names.push_back("k_" + k.first);
    Batch sorted;
    sorted.schema = b.schema;
    sorted.rows = ref::Sort(b, keys);
    const std::vector<Row> want = ref::Aggregate(sorted, groups, aggs);
    // Behind a SortOp (one batch) and over pre-sorted 9-row morsels
    // (groups straddle batches).
    ExpectRowsBitEq(Collect(MakeStreamedAggregate(MakeSort(Source(b), keys),
                                                  groups, names, aggs)),
                    want, "streamed agg over sort " + Describe(ks));
    ExpectRowsBitEq(
        Collect(MakeStreamedAggregate(Source(sorted), groups, names, aggs)),
        want, "streamed agg over morsels " + Describe(ks));
  }
}

TEST_P(KeyCompareParityTest, WindowMatchesReference) {
  const Batch b = KeyBatch(200, GetParam());
  const std::vector<std::vector<std::string>> partitions = {
      {}, {"s"}, {"i"}, {"f", "t"}, {"g"}};
  for (const std::vector<std::string>& part : partitions) {
    std::vector<ExprPtr> pby;
    for (const std::string& p : part) pby.push_back(Expr::Column(p));
    for (const auto& ks : KeySets()) {
      const std::vector<SortKey> order = Keys(ks);
      for (const WindowFunc func :
           {WindowFunc::kRowNumber, WindowFunc::kRank, WindowFunc::kSum}) {
        const ExprPtr arg = Expr::Column("j");
        ExpectRowsBitEq(
            Collect(MakeWindow(Source(b), pby, order, func, arg, "w")),
            ref::Window(b, pby, order, func, arg),
            "window parts=" + std::to_string(part.size()) + " order " +
                Describe(ks));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyCompareParityTest,
                         ::testing::Range<uint64_t>(1, 7));

// ---------------------------------------------------------------------
// Sort kernel edges: each batch below is sorted under every direction
// mix of each key set, as 9-row morsels, and must equal ref::Sort row
// for row (the `id` column shows stability).
// ---------------------------------------------------------------------

Schema EdgeSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"i", DataType::kInt64},    // full int64 range, NULLs
                 {"k", DataType::kInt64},    // small range, NULLs
                 {"f", DataType::kFloat64},  // +-0/inf/NaN, denormals, NULLs
                 {"z", DataType::kFloat64},  // only -0.0 and 0.0
                 {"s", DataType::kString},   // NUL bytes, high bytes, NULLs
                 {"l", DataType::kString},   // tails past the cap, NULLs
                 {"n", DataType::kNull}});
}

// Long strings share "comment:" and, past it, 40 'x's or more, so their
// first 32 tail bytes tie; the bytes after them, or the next key, decide.
std::string LongString(Rng* rng) {
  const std::string xs(40, 'x');
  const std::string tails[] = {"", "a", "b", std::string("a\0", 2), "\xff"};
  switch (rng->UniformInt(0, 5)) {
    case 0:
      return "comment:";
    case 1:
      return "comment:" + std::string(32, 'x');
    case 2:
      return "comment:" + std::string(33, 'x');
    case 3:
      return "comment:" + std::string(31, 'x') + std::string(1, '\0');
    default:
      return "comment:" + xs + tails[rng->UniformInt(0, 4)];
  }
}

Batch EdgeBatch(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  Batch b;
  b.schema = EdgeSchema();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double minnorm = std::numeric_limits<double>::min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t ints[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  const double floats[] = {-0.0, 0.0,     inf,          -inf,
                           tiny, -tiny,   minnorm / 4,  -minnorm,
                           1.0,  -1e308,  minnorm,      nan,
                           -nan};
  const std::string strs[] = {"",     std::string(1, '\0'),
                              "a",    std::string("a\0", 2),
                              std::string("a\0\0", 3),
                              "ab",   "\xc3\xa9", "\xff",
                              "abc\xff", "b"};
  const auto pick = [&](int64_t hi) { return rng.UniformInt(0, hi); };
  const auto maybe_null = [&](Value v) {
    return pick(5) == 0 ? Value::Null() : std::move(v);
  };
  for (std::size_t r = 0; r < n; ++r) {
    b.rows.push_back({Value(static_cast<int64_t>(r)),
                      maybe_null(Value(ints[pick(6)])),
                      maybe_null(Value(pick(3) - 1)),
                      maybe_null(Value(floats[pick(12)])),
                      Value(pick(1) == 0 ? -0.0 : 0.0),
                      maybe_null(Value(strs[pick(9)])),
                      maybe_null(Value(LongString(&rng))),
                      Value::Null()});
  }
  return b;
}

// Every ascending/descending assignment of `names`.
std::vector<std::vector<std::pair<std::string, bool>>> DirectionMixes(
    const std::vector<std::string>& names) {
  std::vector<std::vector<std::pair<std::string, bool>>> out;
  for (std::size_t mask = 0; mask < (std::size_t{1} << names.size());
       ++mask) {
    std::vector<std::pair<std::string, bool>> ks;
    for (std::size_t k = 0; k < names.size(); ++k) {
      ks.push_back({names[k], ((mask >> k) & 1) == 0});
    }
    out.push_back(std::move(ks));
  }
  return out;
}

const std::vector<std::vector<std::string>>& EdgeKeySets() {
  static const std::vector<std::vector<std::string>> sets = {
      {"i"},      {"k"},           {"f"},           {"z"},
      {"s"},      {"l"},           {"n"},           {"id"},
      {"l", "k"}, {"l", "s", "z"}, {"n", "s"},      {"z", "i"},
      {"k", "f"}, {"s", "f", "i"}, {"i", "n", "l"}, {"z", "k", "s"},
  };
  return sets;
}

void ExpectEdgeSortsMatch(const Batch& b, const std::string& ctx) {
  for (const std::vector<std::string>& names : EdgeKeySets()) {
    for (const auto& ks : DirectionMixes(names)) {
      const std::vector<SortKey> keys = Keys(ks);
      ExpectRowsBitEq(Collect(MakeSort(Source(b), keys)), ref::Sort(b, keys),
                      ctx + " sort " + Describe(ks));
    }
  }
}

// WindowOp orders rows through SortPermutation over (partition
// position, order keys): each key set partitions by its first key and
// orders by the rest (or by `id`) under every direction mix.
void ExpectEdgeWindowsMatch(const Batch& b, const std::string& ctx) {
  for (const std::vector<std::string>& names : EdgeKeySets()) {
    const std::vector<ExprPtr> pby = {Expr::Column(names[0])};
    std::vector<std::string> rest(names.begin() + 1, names.end());
    if (rest.empty()) rest.push_back("id");
    for (const auto& ks : DirectionMixes(rest)) {
      const std::vector<SortKey> order = Keys(ks);
      for (const WindowFunc func :
           {WindowFunc::kRowNumber, WindowFunc::kRank, WindowFunc::kSum}) {
        const ExprPtr arg =
            func == WindowFunc::kSum ? Expr::Column("k") : nullptr;
        ExpectRowsBitEq(
            Collect(MakeWindow(Source(b), pby, order, func, arg, "w")),
            ref::Window(b, pby, order, func, arg),
            ctx + " window over " + names[0] + " by " + Describe(ks));
      }
    }
  }
}

class SortKernelParityTest : public ::testing::TestWithParam<uint64_t> {};

// 600 rows take the radix passes, 40 rows the small-batch sort.
TEST_P(SortKernelParityTest, EdgeBatchesMatchReference) {
  for (const std::size_t n : {std::size_t{600}, std::size_t{40}}) {
    ExpectEdgeSortsMatch(EdgeBatch(n, GetParam()),
                         std::to_string(n) + " rows");
    ExpectEdgeWindowsMatch(EdgeBatch(n, GetParam()),
                           std::to_string(n) + " rows");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortKernelParityTest,
                         ::testing::Range<uint64_t>(1, 4));

TEST(SortKernelEdgeTest, EmptyAndOneRowBatches) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    ExpectEdgeSortsMatch(EdgeBatch(n, 5), std::to_string(n) + " rows");
  }
}

// Over-cap tails that tie on their first 32 bytes ("comment" is the
// common prefix): rows whose whole strings are equal are decided by the
// next key, the others by the bytes past the cap, whatever the next key
// says.
TEST(SortKernelEdgeTest, OverCapTiesAreDecidedByTheComparator) {
  Batch b;
  b.schema = Schema({{"id", DataType::kInt64},
                     {"l", DataType::kString},
                     {"k", DataType::kInt64}});
  const std::string head = "comment:" + std::string(40, 'x');
  const std::vector<std::pair<std::string, int64_t>> rows = {
      {head + "b", 1}, {head + "a", 9}, {head + "b", 0},
      {head + "a", 2}, {head, 5},       {head + "ab", -4},
      {"comment", 3}};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    b.rows.push_back({Value(static_cast<int64_t>(r)), Value(rows[r].first),
                      Value(rows[r].second)});
  }
  for (const auto& ks : DirectionMixes({"l", "k"})) {
    const std::vector<SortKey> keys = Keys(ks);
    ExpectRowsBitEq(Collect(MakeSort(Source(b), keys)), ref::Sort(b, keys),
                    "over-cap sort " + Describe(ks));
  }
  // Spelled out once: l ascending, then k ascending.
  const std::vector<Row> got =
      Collect(MakeSort(Source(b), Keys({{"l", true}, {"k", true}})));
  std::vector<int64_t> ids;
  for (const Row& r : got) ids.push_back(r[0].int64());
  EXPECT_EQ(ids, (std::vector<int64_t>{6, 4, 3, 1, 5, 2, 0}));
}

// NaN keys spelled out: SortOp is checked against std::stable_sort
// under Value::Compare itself, with and without NULLs (the typed float
// compare and the CompareCells path), ascending and descending, alone
// and behind another key.
TEST(KeyCompareNaNTest, SortEqualsStableSortUnderCompareCells) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Batch b;
    b.schema = Schema({{"id", DataType::kInt64},
                       {"x", DataType::kFloat64},
                       {"y", DataType::kFloat64},
                       {"s", DataType::kString}});
    const double vals[] = {nan, -0.0, 0.0, 1.0, -2.0, nan};
    for (int64_t r = 0; r < 200; ++r) {
      b.rows.push_back(
          {Value(r), Value(vals[rng.UniformInt(0, 5)]),
           rng.UniformInt(0, 5) == 0 ? Value::Null()
                                     : Value(vals[rng.UniformInt(0, 5)]),
           Value(std::string(
               1, static_cast<char>('a' + rng.UniformInt(0, 2))))});
    }
    const std::vector<std::vector<std::pair<std::string, bool>>> sets = {
        {{"x", true}}, {{"x", false}}, {{"y", true}}, {{"y", false}},
        {{"s", true}, {"x", true}}, {{"x", false}, {"s", true}}};
    for (const auto& ks : sets) {
      const std::vector<SortKey> keys = Keys(ks);
      std::vector<Row> keyrows;
      for (const Row& r : b.rows) {
        keyrows.push_back(ref::EvalAll(Exprs(keys), b.schema, r));
      }
      std::vector<uint32_t> perm(b.rows.size());
      std::iota(perm.begin(), perm.end(), 0u);
      std::vector<bool> asc;
      for (const SortKey& k : keys) asc.push_back(k.ascending);
      std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t c) {
        return ref::CompareRows(keyrows[a], keyrows[c], asc) < 0;
      });
      std::vector<Row> want;
      for (const uint32_t p : perm) want.push_back(b.rows[p]);
      ExpectRowsBitEq(Collect(MakeSort(Source(b), keys)), want,
                      "NaN sort " + Describe(ks));
    }
  }
}

TEST(KeyCompareNaNTest, StreamedAggregateComparesWithTheGroupsFirstKey) {
  // Sorted input: -0.0 and 0.0 are one group, and every NaN (either
  // sign, any payload) is one more group after +inf. A group reports its
  // class's canonical member (+0.0, the quiet NaN), whatever its first
  // row holds. Same across batches.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  double payload_nan = 0;
  const uint64_t bits = 0xfff8000000000123ULL;  // -NaN with a payload
  std::memcpy(&payload_nan, &bits, sizeof(bits));
  Batch b;
  b.schema = Schema({{"x", DataType::kFloat64}});
  for (const double v :
       {-0.0, 0.0, 1.0, 1.0, 2.0, inf, nan, -nan, payload_nan, nan}) {
    b.rows.push_back({Value(v)});
  }
  const std::vector<ExprPtr> groups = {Expr::Column("x")};
  const std::vector<AggSpec> aggs = {{AggKind::kCount, nullptr, "n"}};
  for (const std::size_t morsel : {std::size_t{1}, std::size_t{3},
                                   std::size_t{100}}) {
    Result<ColumnBatch> cb = ToColumnBatch(b);
    ASSERT_TRUE(cb.ok());
    std::vector<ColumnBatch> batches;
    batches.push_back(*std::move(cb));
    const std::vector<Row> got = Collect(MakeStreamedAggregate(
        MakeSlicedSource(b.schema, std::move(batches), morsel), groups, {"x"},
        aggs));
    ExpectRowsBitEq(got,
                    {{Value(0.0), Value(int64_t{2})},
                     {Value(1.0), Value(int64_t{2})},
                     {Value(2.0), Value(int64_t{1})},
                     {Value(inf), Value(int64_t{1})},
                     {Value(nan), Value(int64_t{4})}},
                    "morsel " + std::to_string(morsel));
  }
}

}  // namespace
}  // namespace swift
