// Gather parity suite (ctest label vec_smoke).
//
// ColumnVector::AppendSelected is the one gather kernel of the exec
// path. Its contract is that it equals a loop of per-cell AppendFrom
// calls field for field: rep, size, null count, the validity bitmap's
// bytes and the typed storage. A column keeps its field's rep, so both
// sides of a gather have one rep: this suite checks that contract for
// each of the four reps, with NULLs on either side, over empty,
// in-order, reversed and repeating row lists, and that each of the
// twelve mismatched (destination, source) pairs aborts. It then checks
// each caller
// (Flatten, SliceRows, the breaker drain's ConcatBatches, the partition
// gather of tests/partition_gather.h over HashPartitioner's routing,
// and the join output gather with its NULL-padded right side) against
// the same per-cell oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash64.h"
#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/key_encoder.h"
#include "exec/operators.h"
#include "partition_gather.h"

namespace swift {
namespace {

constexpr ColumnRep kReps[] = {ColumnRep::kNull, ColumnRep::kInt64,
                               ColumnRep::kFloat64, ColumnRep::kString};

const char* RepName(ColumnRep r) {
  switch (r) {
    case ColumnRep::kNull:
      return "Null";
    case ColumnRep::kInt64:
      return "Int64";
    case ColumnRep::kFloat64:
      return "Float64";
    case ColumnRep::kString:
      return "String";
  }
  return "?";
}

Value RandomValue(Rng* rng, DataType t) {
  switch (t) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt64: {
      const int64_t pick = rng->UniformInt(0, 9);
      if (pick == 0) return Value(std::numeric_limits<int64_t>::min());
      if (pick == 1) return Value(std::numeric_limits<int64_t>::max());
      return Value(rng->UniformInt(-50, 50));
    }
    case DataType::kFloat64: {
      const int64_t pick = rng->UniformInt(0, 9);
      if (pick == 0) return Value(-0.0);
      if (pick == 1) return Value(std::numeric_limits<double>::quiet_NaN());
      if (pick == 2) return Value(std::numeric_limits<double>::infinity());
      return Value(static_cast<double>(rng->UniformInt(-40, 40)) * 0.25);
    }
    case DataType::kString: {
      const auto len = static_cast<std::size_t>(rng->UniformInt(0, 11));
      return Value(std::string(
          len, static_cast<char>('a' + rng->UniformInt(0, 25))));
    }
  }
  return Value::Null();
}

// A column of `rep` holding n cells; with `nulls`, about a third of them
// NULL.
ColumnVector MakeColumn(ColumnRep rep, std::size_t n, bool nulls,
                        uint64_t seed) {
  if (rep == ColumnRep::kNull) return ColumnVector::MakeNull(n);
  Rng rng(seed);
  ColumnVector c = ColumnVector::OfRep(rep);
  for (std::size_t i = 0; i < n; ++i) {
    if (nulls && rng.UniformInt(0, 2) == 0) {
      c.AppendNull();
      continue;
    }
    c.Append(RandomValue(&rng, static_cast<DataType>(rep)));
  }
  EXPECT_EQ(c.rep(), rep);
  return c;
}

void ExpectSameColumn(const ColumnVector& got, const ColumnVector& want,
                      const std::string& ctx) {
  ASSERT_EQ(got.rep(), want.rep()) << ctx;
  ASSERT_EQ(got.size(), want.size()) << ctx;
  EXPECT_EQ(got.null_count(), want.null_count()) << ctx;
  EXPECT_EQ(got.ValidityBits(), want.ValidityBits()) << ctx;
  const std::size_t n = want.size();
  switch (want.rep()) {
    case ColumnRep::kNull:
      break;
    case ColumnRep::kInt64:
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got.Int64Data()[i], want.Int64Data()[i]) << ctx << " @" << i;
      }
      break;
    case ColumnRep::kFloat64:
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::memcmp(got.Float64Data() + i, want.Float64Data() + i,
                              sizeof(double)),
                  0)
            << ctx << " @" << i;
      }
      break;
    case ColumnRep::kString:
      // Equal heaps and equal cell lengths mean equal offsets.
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got.StrAt(i).size(), want.StrAt(i).size())
            << ctx << " @" << i;
      }
      EXPECT_EQ(got.Heap(), want.Heap()) << ctx;
      break;
  }
}

void ExpectSameBatch(const ColumnBatch& got, const ColumnBatch& want,
                     const std::string& ctx) {
  ASSERT_EQ(got.columns.size(), want.columns.size()) << ctx;
  EXPECT_EQ(got.physical_rows, want.physical_rows) << ctx;
  EXPECT_EQ(got.selection, want.selection) << ctx;
  for (std::size_t c = 0; c < want.columns.size(); ++c) {
    ExpectSameColumn(got.columns[c], want.columns[c],
                     ctx + " col " + std::to_string(c));
  }
}

// The oracle: one AppendFrom per row.
ColumnVector PerCell(ColumnVector dst, const ColumnVector& src,
                     const std::vector<uint32_t>& rows) {
  for (const uint32_t r : rows) dst.AppendFrom(src, r);
  return dst;
}

// Row lists over a source of n rows: empty, in order, reversed, and a
// longer random list that repeats rows.
std::vector<std::vector<uint32_t>> RowLists(std::size_t n, uint64_t seed) {
  std::vector<std::vector<uint32_t>> lists(4);
  for (std::size_t i = 0; i < n; ++i) {
    lists[1].push_back(static_cast<uint32_t>(i));
    lists[2].push_back(static_cast<uint32_t>(n - 1 - i));
  }
  Rng rng(seed);
  for (std::size_t i = 0; n > 0 && i < 2 * n + 3; ++i) {
    lists[3].push_back(static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
  }
  return lists;
}

class GatherRepPairTest
    : public ::testing::TestWithParam<std::tuple<ColumnRep, ColumnRep>> {};

TEST_P(GatherRepPairTest, AppendSelectedMatchesPerCellAppendFrom) {
  const auto [dst_rep, src_rep] = GetParam();
  if (dst_rep != src_rep) {
    // A program bug: not even an all-NULL column takes typed cells, nor
    // a float64 one int64 cells.
    const ColumnVector src = MakeColumn(src_rep, 37, false, 1);
    const std::vector<uint32_t> rows = {3, 1, 4};
    ColumnVector dst = MakeColumn(dst_rep, 5, false, 2);
    EXPECT_DEATH(dst.AppendSelected(src, rows.data(), rows.size()),
                 "rep mismatch");
    return;
  }
  uint64_t seed = 1;
  // NULLs on neither side, the source only, the destination only, both.
  for (const bool src_nulls : {false, true}) {
    for (const bool dst_nulls : {false, true}) {
      // Destination lengths around byte boundaries of the bitmap.
      for (const std::size_t dst_n : {std::size_t{0}, std::size_t{5},
                                      std::size_t{13}, std::size_t{16}}) {
        const ColumnVector src = MakeColumn(src_rep, 37, src_nulls, ++seed);
        const ColumnVector dst = MakeColumn(dst_rep, dst_n, dst_nulls, ++seed);
        const auto lists = RowLists(src.size(), ++seed);
        for (std::size_t l = 0; l < lists.size(); ++l) {
          const std::vector<uint32_t>& rows = lists[l];
          ColumnVector got = dst;
          got.AppendSelected(src, rows.data(), rows.size());
          const std::string ctx =
              std::string(RepName(dst_rep)) + "<-" + RepName(src_rep) +
              " src_nulls=" + std::to_string(src_nulls) +
              " dst_nulls=" + std::to_string(dst_nulls) +
              " dst_n=" + std::to_string(dst_n) + " list=" + std::to_string(l);
          ExpectSameColumn(got, PerCell(dst, src, rows), ctx);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRepPairs, GatherRepPairTest,
    ::testing::Combine(::testing::ValuesIn(kReps), ::testing::ValuesIn(kReps)),
    [](const ::testing::TestParamInfo<GatherRepPairTest::ParamType>& info) {
      return std::string(RepName(std::get<0>(info.param))) + "From" +
             RepName(std::get<1>(info.param));
    });

TEST(GatherKernelTest, LateFirstNullLeavesTheSameBitmapBytes) {
  // The first NULL materializes the bitmap at its own position, so the
  // bytes past size() match the per-cell appends too.
  for (const ColumnRep rep :
       {ColumnRep::kInt64, ColumnRep::kFloat64, ColumnRep::kString}) {
    for (const std::size_t null_at : {3, 9, 19}) {
      ColumnVector src = MakeColumn(rep, 20, false, null_at);
      ColumnVector with_null = ColumnVector::OfRep(rep);
      for (std::size_t i = 0; i < src.size(); ++i) {
        if (i == null_at) {
          with_null.AppendNull();
        } else {
          with_null.AppendFrom(src, i);
        }
      }
      for (const std::size_t dst_n : {std::size_t{0}, std::size_t{5}}) {
        const ColumnVector dst = MakeColumn(rep, dst_n, false, 7);
        for (const std::size_t n : {null_at + 1, std::size_t{20}}) {
          std::vector<uint32_t> rows(n);
          for (std::size_t i = 0; i < n; ++i) {
            rows[i] = static_cast<uint32_t>(i);
          }
          ColumnVector got = dst;
          got.AppendSelected(with_null, rows.data(), n);
          ExpectSameColumn(got, PerCell(dst, with_null, rows),
                           std::string(RepName(rep)) + " null at " +
                               std::to_string(null_at));
        }
      }
    }
  }
}

TEST(GatherKernelTest, InlineTypedAppendsMatchBoxedAppend) {
  // The inline no-NULL AppendInt64/AppendFloat64 path and the bitmap
  // path after a NULL leave what Append(Value) leaves.
  ColumnVector a = ColumnVector::OfType(DataType::kInt64);
  ColumnVector b = ColumnVector::OfType(DataType::kInt64);
  ColumnVector f = ColumnVector::OfType(DataType::kFloat64);
  ColumnVector g = ColumnVector::OfType(DataType::kFloat64);
  for (int i = 0; i < 20; ++i) {
    if (i == 9) {
      a.AppendNull();
      b.Append(Value::Null());
      f.AppendNull();
      g.Append(Value::Null());
      continue;
    }
    a.AppendInt64(i);
    b.Append(Value(int64_t{i}));
    f.AppendFloat64(i * 0.5);
    g.Append(Value(i * 0.5));
  }
  ExpectSameColumn(a, b, "int64");
  ExpectSameColumn(f, g, "float64");
}

// A batch of every column rep (kNull included) with NULLs, plus a
// selection that repeats and reorders rows.
ColumnBatch MixedBatch(std::size_t n, uint64_t seed) {
  ColumnBatch b;
  std::vector<Field> fields;
  for (const ColumnRep rep : kReps) {
    b.columns.push_back(MakeColumn(rep, n, true, ++seed));
    fields.push_back(Field{std::string("c") + RepName(rep),
                           static_cast<DataType>(rep)});
  }
  b.schema = Schema(std::move(fields));
  b.physical_rows = n;
  return b;
}

std::vector<uint32_t> RandomSelection(std::size_t n, std::size_t len,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> sel;
  for (std::size_t i = 0; i < len; ++i) {
    sel.push_back(static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
  }
  return sel;
}

ColumnBatch PerCellBatch(const ColumnBatch& src,
                         const std::vector<uint32_t>& rows) {
  ColumnBatch out;
  out.schema = src.schema;
  out.physical_rows = rows.size();
  for (const ColumnVector& c : src.columns) {
    out.columns.push_back(PerCell(ColumnVector::OfRep(c.rep()), c, rows));
  }
  return out;
}

TEST(GatherCallerTest, FlattenAndSliceRowsGatherPerCell) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ColumnBatch b = MixedBatch(50, seed * 100);
    const std::vector<uint32_t> sel = RandomSelection(50, 70, seed);
    b.selection = sel;
    const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
        {0, 70}, {13, 21}, {69, 5}, {70, 3}};
    for (const auto& [begin, len] : ranges) {
      const std::size_t end = std::min<std::size_t>(begin + len, sel.size());
      const std::vector<uint32_t> part(sel.begin() + begin, sel.begin() + end);
      ExpectSameBatch(b.SliceRows(begin, len), PerCellBatch(b, part),
                      "slice " + std::to_string(begin));
    }
    ColumnBatch flat = b;
    flat.Flatten();
    ExpectSameBatch(flat, PerCellBatch(b, sel), "flatten");
  }
}

TEST(GatherCallerTest, ConcatBatchesGathersPerCell) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const ColumnBatch dense = MixedBatch(30, seed * 100);
    ColumnBatch selected = MixedBatch(40, seed * 100 + 50);
    const std::vector<uint32_t> sel = RandomSelection(40, 25, seed);
    selected.selection = sel;
    std::vector<ColumnBatch> parts = {dense, selected, dense};
    const ColumnBatch got = ConcatBatches(dense.schema, std::move(parts));

    std::vector<uint32_t> all(30);
    for (uint32_t i = 0; i < 30; ++i) all[i] = i;
    ColumnBatch want = PerCellBatch(dense, all);
    for (std::size_t c = 0; c < want.columns.size(); ++c) {
      want.columns[c] = PerCell(want.columns[c], selected.columns[c], sel);
      want.columns[c] = PerCell(want.columns[c], dense.columns[c], all);
    }
    want.physical_rows = 30 + 25 + 30;
    ExpectSameBatch(got, want, "concat seed " + std::to_string(seed));
  }
}

TEST(GatherCallerTest, HashPartitionScatterGathersPerCell) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ColumnBatch b = MixedBatch(200, seed * 100);
    b.selection = RandomSelection(200, 150, seed);
    const int nparts = 5;
    // Partition on the int64 column (NULL keys go to partition 0).
    const std::vector<ExprPtr> keys = {Expr::Column("cInt64")};
    Result<std::vector<ColumnBatch>> got =
        GatherPartitions(b, keys, nparts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    // Route with the same hash the partitioner uses; the gather is what
    // is under test.
    const ColumnVector key = PerCell(ColumnVector::OfRep(ColumnRep::kInt64),
                                     b.columns[1], *b.selection);
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> nulls;
    KeyEncoder::HashColumns({&key}, nullptr, key.size(), &hashes, &nulls);
    std::vector<std::vector<uint32_t>> rows(nparts);
    for (std::size_t i = 0; i < b.num_rows(); ++i) {
      const uint32_t p =
          nulls[i] != 0 ? 0 : RangeReduce(hashes[i], uint32_t{nparts});
      rows[p].push_back((*b.selection)[i]);
    }
    for (int p = 0; p < nparts; ++p) {
      ExpectSameBatch((*got)[p], PerCellBatch(b, rows[p]),
                      "partition " + std::to_string(p));
    }
  }
}

// Inner and left-outer joins on an int64 key with NULLs and unmatched
// rows; the payload columns cover every rep. The join output columns
// must be the per-cell gather of the drained inputs at the
// reference-order index pairs, with AppendNull for the padded side.
void ExpectJoinGather(bool merge, JoinType type) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    auto side = [&](std::size_t n, uint64_t s) {
      ColumnBatch b = MixedBatch(n, s);
      ColumnVector key = ColumnVector::OfType(DataType::kInt64);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.UniformInt(0, 5) == 0) {
          key.AppendNull();
        } else {
          key.AppendInt64(rng.UniformInt(0, 12));
        }
      }
      b.columns.insert(b.columns.begin(), std::move(key));
      std::vector<Field> fields = b.schema.fields();
      fields.insert(fields.begin(), Field{"k", DataType::kInt64});
      b.schema = Schema(std::move(fields));
      return b;
    };
    const ColumnBatch left = side(40, seed * 1000);
    const ColumnBatch right = side(30, seed * 1000 + 500);
    auto source = [&](const ColumnBatch& b) {
      // Three morsels, so the drain concatenates.
      std::vector<ColumnBatch> parts = {b.SliceRows(0, 10), b.SliceRows(10, 7),
                                        b.SliceRows(17, 100)};
      OperatorPtr op = MakeColumnBatchSource(b.schema, std::move(parts));
      if (merge) {
        op = MakeSort(std::move(op), {SortKey{Expr::Column("k"), true}});
      }
      return op;
    };
    // The inputs exactly as the join drains them.
    Result<ColumnBatch> l = CollectAllColumnar(source(left).get());
    Result<ColumnBatch> r = CollectAllColumnar(source(right).get());
    ASSERT_TRUE(l.ok() && r.ok());
    const std::vector<ExprPtr> lk = {Expr::Column("k")};
    OperatorPtr join =
        merge ? MakeMergeJoin(source(left), source(right), lk, lk, type)
              : MakeHashJoin(source(left), source(right), lk, lk, type);
    ASSERT_TRUE(join->Open().ok());
    Result<std::optional<ColumnBatch>> got = join->Next();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got->has_value());

    ColumnBatch want;
    const ColumnVector& lkey = l->columns[0];
    const ColumnVector& rkey = r->columns[0];
    std::vector<uint32_t> lidx;
    std::vector<int64_t> ridx;  // -1 = padded
    for (uint32_t i = 0; i < l->physical_rows; ++i) {
      bool matched = false;
      for (uint32_t j = 0; j < r->physical_rows; ++j) {
        if (lkey.IsNull(i) || rkey.IsNull(j) ||
            lkey.Int64At(i) != rkey.Int64At(j)) {
          continue;
        }
        lidx.push_back(i);
        ridx.push_back(j);
        matched = true;
      }
      if (!matched && type == JoinType::kLeftOuter) {
        lidx.push_back(i);
        ridx.push_back(-1);
      }
    }
    want.physical_rows = lidx.size();
    for (const ColumnVector& c : l->columns) {
      want.columns.push_back(PerCell(ColumnVector::OfRep(c.rep()), c, lidx));
    }
    for (const ColumnVector& c : r->columns) {
      ColumnVector v = ColumnVector::OfRep(c.rep());
      for (const int64_t j : ridx) {
        if (j < 0) {
          v.AppendNull();
        } else {
          v.AppendFrom(c, static_cast<std::size_t>(j));
        }
      }
      want.columns.push_back(std::move(v));
    }
    ExpectSameBatch(**got, want,
                    std::string(merge ? "merge" : "hash") + " seed " +
                        std::to_string(seed));
  }
}

TEST(GatherCallerTest, HashJoinOutputGathersPerCell) {
  ExpectJoinGather(false, JoinType::kInner);
  ExpectJoinGather(false, JoinType::kLeftOuter);
}

TEST(GatherCallerTest, MergeJoinOutputGathersPerCell) {
  ExpectJoinGather(true, JoinType::kInner);
  ExpectJoinGather(true, JoinType::kLeftOuter);
}

}  // namespace
}  // namespace swift
