// Columnar operator suite (ctest label vec_smoke).
//
// Two families of guarantees are pinned here:
//  1. Batch <-> ColumnBatch conversion is lossless for every Value shape
//     the engine can hold — all four types, NULLs, NaN and -0.0, empty
//     and multi-KB strings — with int64 cells under float64 fields
//     widened and any other ill-typed cell rejected, and
//     SerializeColumnBatch emits the reference encoder's exact bytes
//     (reference_serde.h), while a tagged column (the retired wire mode,
//     under a valid CRC) fails to decode.
//  2. Every operator agrees with the naive reference executor in
//     reference_ops.h: filter, project, limit, hash and streamed
//     aggregate, hash join, and hash partitioning.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/crc32.h"
#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/morsel.h"
#include "exec/operators.h"
#include "partition_gather.h"
#include "exec/serde.h"
#include "reference_ops.h"
#include "sliced_source.h"
#include "reference_serde.h"

namespace swift {
namespace {

// Bit-exact Value equality: NaN == NaN, and -0.0 != +0.0 — stricter
// than Value::Compare, which is what round-tripping must preserve.
bool ValueBitEq(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kInt64:
      return a.int64() == b.int64();
    case DataType::kFloat64: {
      uint64_t ba = 0, bb = 0;
      const double da = a.float64(), db = b.float64();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case DataType::kString:
      return a.str() == b.str();
  }
  return false;
}

// Bit-exact, type-tagged text form of a row (for matching rows).
std::string RowKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    switch (v.type()) {
      case DataType::kNull:
        key += "N;";
        break;
      case DataType::kInt64:
        key += "i" + std::to_string(v.int64()) + ";";
        break;
      case DataType::kFloat64: {
        uint64_t bits = 0;
        const double d = v.float64();
        std::memcpy(&bits, &d, sizeof(bits));
        key += "f" + std::to_string(bits) + ";";
        break;
      }
      case DataType::kString:
        key += "s" + std::to_string(v.str().size()) + ":" + v.str() + ";";
        break;
    }
  }
  return key;
}

void ExpectBatchesBitEq(const Batch& got, const Batch& want) {
  ASSERT_EQ(got.schema, want.schema);
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (std::size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].size(), want.rows[r].size()) << "row " << r;
    for (std::size_t c = 0; c < want.rows[r].size(); ++c) {
      EXPECT_TRUE(ValueBitEq(got.rows[r][c], want.rows[r][c]))
          << "row " << r << " col " << c;
    }
  }
}

// A uniform-width random batch. Cells match their field type, with
// NULLs mixed in; with `widened`, a slice of the cells under float64
// fields are int64s, which conversion widens (ToFieldTypes).
Batch RandomUniformBatch(uint64_t seed, bool widened) {
  Rng rng(seed);
  const int ncols = static_cast<int>(rng.UniformInt(1, 5));
  std::vector<Field> fields;
  for (int c = 0; c < ncols; ++c) {
    fields.push_back(Field{"c" + std::to_string(c),
                           static_cast<DataType>(rng.UniformInt(0, 3))});
  }
  Batch b;
  b.schema = Schema(std::move(fields));
  const int nrows = static_cast<int>(rng.UniformInt(0, 300));
  for (int r = 0; r < nrows; ++r) {
    Row row;
    for (int c = 0; c < ncols; ++c) {
      DataType t = b.schema.fields()[static_cast<std::size_t>(c)].type;
      if (rng.UniformInt(0, 9) == 0) {
        row.push_back(Value::Null());
        continue;
      }
      if (widened && t == DataType::kFloat64 && rng.UniformInt(0, 4) == 0) {
        t = DataType::kInt64;
      }
      switch (t) {
        case DataType::kNull:
          row.push_back(Value::Null());
          break;
        case DataType::kInt64:
          row.push_back(Value(static_cast<int64_t>(rng.Next())));
          break;
        case DataType::kFloat64:
          switch (rng.UniformInt(0, 9)) {
            case 0:
              row.push_back(Value(std::numeric_limits<double>::quiet_NaN()));
              break;
            case 1:
              row.push_back(Value(-0.0));
              break;
            default:
              row.push_back(Value(rng.Uniform(-1e9, 1e9)));
          }
          break;
        case DataType::kString: {
          // Mostly short, occasionally multi-KB.
          const std::size_t len = static_cast<std::size_t>(
              rng.UniformInt(0, 9) == 0 ? rng.UniformInt(2048, 8192)
                                        : rng.UniformInt(0, 24));
          std::string s(len, 'x');
          for (char& ch : s) ch = static_cast<char>(rng.UniformInt(0, 255));
          row.push_back(Value(std::move(s)));
          break;
        }
      }
    }
    b.rows.push_back(std::move(row));
  }
  return b;
}

// `b` with every int64 cell under a float64 field widened: the rows a
// converted batch holds.
Batch ToFieldTypes(Batch b) {
  for (Row& row : b.rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (row[c].is_int64() && b.schema.field(c).type == DataType::kFloat64) {
        row[c] = Value(static_cast<double>(row[c].int64()));
      }
    }
  }
  return b;
}

// `b` plus one row holding, in one random column, a cell of a type its
// field cannot take (nothing under kNull, no narrowing, no numbers under
// strings and back). Returns that row and column.
std::pair<std::size_t, std::size_t> AddIllTypedCell(Batch* b, uint64_t seed) {
  Rng rng(seed);
  const std::size_t c = static_cast<std::size_t>(rng.UniformInt(
      0, static_cast<int64_t>(b->schema.num_fields()) - 1));
  Row row(b->schema.num_fields(), Value::Null());
  switch (b->schema.field(c).type) {
    case DataType::kNull:
    case DataType::kString:
      row[c] = rng.Bernoulli(0.5) ? Value(int64_t{7}) : Value(0.5);
      break;
    default:
      row[c] = Value("seven");
      break;
  }
  const std::size_t r = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<int64_t>(b->rows.size())));
  b->rows.insert(b->rows.begin() + static_cast<std::ptrdiff_t>(r),
                 std::move(row));
  return {r, c};
}

OperatorPtr ColSourceOf(const Batch& b) {
  Result<ColumnBatch> cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok()) << cb.status().ToString();
  std::vector<ColumnBatch> batches;
  batches.push_back(*std::move(cb));
  return MakeColumnBatchSource(b.schema, std::move(batches));
}

Batch CollectColumnar(OperatorPtr op) {
  Result<ColumnBatch> r = CollectAllColumnar(op.get());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? ToRowBatch(*r) : Batch{};
}

class ColumnarPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarPropertyTest, RoundTripBitExact) {
  for (const bool widened : {false, true}) {
    Batch b = RandomUniformBatch(GetParam(), widened);
    Result<ColumnBatch> cb = ToColumnBatch(b);
    ASSERT_TRUE(cb.ok()) << cb.status().ToString();
    EXPECT_EQ(cb->num_rows(), b.num_rows());
    ExpectBatchesBitEq(ToRowBatch(*cb), ToFieldTypes(b));
  }
}

TEST_P(ColumnarPropertyTest, IllTypedCellIsRejected) {
  // The conversion names the row and column of a cell its field cannot
  // take instead of building a column for it.
  Batch b = RandomUniformBatch(GetParam(), /*widened=*/true);
  const auto [row, col] = AddIllTypedCell(&b, GetParam());
  Result<ColumnBatch> cb = ToColumnBatch(b);
  ASSERT_FALSE(cb.ok());
  EXPECT_EQ(cb.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cb.status().message().find(
                "row " + std::to_string(row) + " column '" +
                b.schema.field(col).name + "'"),
            std::string::npos)
      << cb.status().ToString();
}

TEST_P(ColumnarPropertyTest, SerializeColumnBatchMatchesRowSerializer) {
  for (const bool widened : {false, true}) {
    Batch b = RandomUniformBatch(GetParam(), widened);
    Result<ColumnBatch> cb = ToColumnBatch(b);
    ASSERT_TRUE(cb.ok()) << cb.status().ToString();
    // Byte identity with the naive reference encoder is the wire
    // contract, widened columns included.
    EXPECT_EQ(SerializeColumnBatch(*cb), ref::Serialize(ToFieldTypes(b)));
  }
}

TEST_P(ColumnarPropertyTest, DeserializeColumnBatchMatchesRowDecoder) {
  Batch b = ToFieldTypes(RandomUniformBatch(GetParam(), /*widened=*/true));
  const std::string bytes = ref::Serialize(b);
  Result<ColumnBatch> cb = DeserializeColumnBatch(bytes);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  ExpectBatchesBitEq(ToRowBatch(*cb), b);
  Result<Batch> rows = DeserializeBatch(bytes);
  ASSERT_TRUE(rows.ok());
  ExpectBatchesBitEq(*rows, b);
  // And re-encoding the columnar decode reproduces the buffer.
  EXPECT_EQ(SerializeColumnBatch(*cb), bytes);
  // The same batch with one ill-typed cell: the reference encoder writes
  // that column in the retired tagged mode under a valid CRC, and the
  // decoder refuses it rather than decode a column of mixed types.
  AddIllTypedCell(&b, GetParam());
  Result<ColumnBatch> tagged = DeserializeColumnBatch(ref::Serialize(b));
  ASSERT_FALSE(tagged.ok());
  EXPECT_EQ(tagged.status().code(), StatusCode::kIOError);
}

TEST(ColumnarSerdeTest, HandBuiltTaggedColumnFailsClosed) {
  // A v2 buffer byte by byte: one int64 field "x", two rows, the column
  // in the retired tagged mode (1) holding an int64 and a string, and a
  // valid CRC footer. The decoder must refuse it, not decode it.
  std::string header;
  ref::AppendLittleEndian(&header, 0x53574632, 4);  // "SWF2"
  ref::AppendVarint(&header, 1);                    // one field
  ref::AppendVarint(&header, 1);
  header += "x";
  header.push_back(static_cast<char>(DataType::kInt64));
  ref::AppendVarint(&header, 2);  // two rows
  std::string tagged = header;
  tagged.push_back(1);  // tagged mode
  tagged.push_back(static_cast<char>(DataType::kInt64));
  ref::AppendLittleEndian(&tagged, 42, 8);
  tagged.push_back(static_cast<char>(DataType::kString));
  ref::AppendVarint(&tagged, 2);
  tagged += "ab";
  ref::AppendLittleEndian(&tagged, Crc32(tagged), 4);
  Result<ColumnBatch> got = DeserializeColumnBatch(tagged);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  EXPECT_NE(got.status().message().find("bad column mode 1"),
            std::string::npos)
      << got.status().ToString();
  // The same header with the column typed (mode 0, bitmap 0b01, the one
  // int64) decodes, so it is the mode that is refused.
  std::string typed = header;
  typed.push_back(0);
  typed.push_back(1);
  ref::AppendLittleEndian(&typed, 42, 8);
  ref::AppendLittleEndian(&typed, Crc32(typed), 4);
  Result<ColumnBatch> ok = DeserializeColumnBatch(typed);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->columns[0].GetValue(0).int64(), 42);
  EXPECT_TRUE(ok->columns[0].IsNull(1));
}

TEST_P(ColumnarPropertyTest, SelectionAwareSerialization) {
  Batch b = RandomUniformBatch(GetParam(), /*widened=*/false);
  Result<ColumnBatch> cb = ToColumnBatch(b);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  // Keep every other physical row, in order.
  std::vector<uint32_t> sel;
  for (std::size_t i = 0; i < cb->physical_rows; i += 2) {
    sel.push_back(static_cast<uint32_t>(i));
  }
  cb->selection = std::move(sel);
  Batch gathered = ToRowBatch(*cb);
  EXPECT_EQ(gathered.num_rows(), cb->num_rows());
  EXPECT_EQ(SerializeColumnBatch(*cb), ref::Serialize(gathered));
  // Flatten() drops the selection without changing logical contents.
  ColumnBatch flat = *cb;
  flat.Flatten();
  EXPECT_FALSE(flat.selection.has_value());
  ExpectBatchesBitEq(ToRowBatch(flat), gathered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));

TEST(ColumnarEdgeTest, SpecialFloatsAndStringsRoundTrip) {
  Schema s({{"f", DataType::kFloat64}, {"s", DataType::kString}});
  Batch b;
  b.schema = s;
  b.rows.push_back({Value(std::numeric_limits<double>::quiet_NaN()),
                    Value(std::string())});
  b.rows.push_back({Value(-0.0), Value(std::string(4096, '\0'))});
  b.rows.push_back({Value(std::numeric_limits<double>::infinity()),
                    Value(std::string(64 << 10, 'q'))});
  b.rows.push_back({Value::Null(), Value::Null()});
  Result<ColumnBatch> cb = ToColumnBatch(b);
  ASSERT_TRUE(cb.ok());
  ExpectBatchesBitEq(ToRowBatch(*cb), b);
  EXPECT_EQ(SerializeColumnBatch(*cb), ref::Serialize(b));
  Result<ColumnBatch> back = DeserializeColumnBatch(ref::Serialize(b));
  ASSERT_TRUE(back.ok());
  ExpectBatchesBitEq(ToRowBatch(*back), b);
}

TEST(ColumnarEdgeTest, NearMemcpyDecodeProducesTypedColumns) {
  Schema s({{"i", DataType::kInt64}, {"f", DataType::kFloat64}});
  Batch b;
  b.schema = s;
  for (int64_t r = 0; r < 100; ++r) {
    b.rows.push_back({Value(r), Value(static_cast<double>(r) * 0.5)});
  }
  Result<ColumnBatch> cb = DeserializeColumnBatch(SerializeBatch(b));
  ASSERT_TRUE(cb.ok());
  // No nulls: decode must land in contiguous typed storage, not boxes.
  ASSERT_EQ(cb->columns.size(), 2u);
  EXPECT_EQ(cb->columns[0].rep(), ColumnRep::kInt64);
  EXPECT_EQ(cb->columns[1].rep(), ColumnRep::kFloat64);
  EXPECT_FALSE(cb->columns[0].has_nulls());
  EXPECT_EQ(cb->columns[0].Int64At(99), 99);
  EXPECT_EQ(cb->columns[1].Float64At(99), 49.5);
}

// ---- Operator parity against the naive reference --------------------

Schema Wide() {
  return Schema({{"k", DataType::kInt64},
                 {"v", DataType::kFloat64},
                 {"s", DataType::kString}});
}

Batch RandomWideBatch(uint64_t seed, int nrows) {
  Rng rng(seed);
  Batch b;
  b.schema = Wide();
  for (int r = 0; r < nrows; ++r) {
    Row row;
    row.push_back(rng.UniformInt(0, 19) == 0
                      ? Value::Null()
                      : Value(rng.UniformInt(-50, 50)));
    row.push_back(rng.UniformInt(0, 19) == 0 ? Value::Null()
                                             : Value(rng.Uniform(-1.0, 1.0)));
    row.push_back(Value("s" + std::to_string(rng.UniformInt(0, 9))));
    b.rows.push_back(std::move(row));
  }
  return b;
}

Batch RowsOf(const Schema& schema, std::vector<Row> rows) {
  Batch b;
  b.schema = schema;
  b.rows = std::move(rows);
  return b;
}

// Every row of `part` (a partition of `in`'s rows, in order) hashed by
// `keys`: the rows of each partition are an order-preserving
// subsequence of the input, together they are exactly the input, equal
// keys share a partition and NULL keys land in partition 0.
void ExpectValidPartitioning(const Batch& in, const std::vector<ExprPtr>& keys,
                             const std::vector<ColumnBatch>& parts) {
  std::vector<Row> keyrows;
  for (const Row& r : in.rows) keyrows.push_back(ref::EvalAll(keys, in.schema, r));
  std::vector<int> dest(in.rows.size(), -1);
  std::size_t total = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const Batch rows = ToRowBatch(parts[p]);
    total += rows.rows.size();
    std::size_t cursor = 0;  // next input row this partition may match
    for (const Row& r : rows.rows) {
      while (cursor < in.rows.size() &&
             (dest[cursor] >= 0 || RowKey(in.rows[cursor]) != RowKey(r))) {
        ++cursor;
      }
      ASSERT_LT(cursor, in.rows.size()) << "partition " << p
                                        << " holds a row out of input order";
      dest[cursor++] = static_cast<int>(p);
    }
  }
  EXPECT_EQ(total, in.rows.size());
  for (std::size_t i = 0; i < in.rows.size(); ++i) {
    ASSERT_GE(dest[i], 0) << "row " << i << " lost";
    if (ref::AnyNull(keyrows[i])) {
      EXPECT_EQ(dest[i], 0) << "row " << i;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (!ref::AnyNull(keyrows[i]) && ref::KeysEqual(keyrows[i], keyrows[j])) {
        EXPECT_EQ(dest[i], dest[j]) << "rows " << j << " and " << i;
        break;
      }
    }
  }
}

class OperatorParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OperatorParityTest, FilterParity) {
  Batch b = RandomWideBatch(GetParam(), 500);
  auto pred = Expr::Binary(
      BinaryOp::kOr,
      Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                   Expr::Literal(Value(int64_t{10}))),
      Expr::Binary(BinaryOp::kLt, Expr::Column("v"),
                   Expr::Literal(Value(-0.5))));
  Batch want = RowsOf(b.schema, ref::Filter(b, pred));
  ExpectBatchesBitEq(CollectColumnar(MakeFilter(ColSourceOf(b), pred)), want);
}

TEST_P(OperatorParityTest, ProjectParity) {
  Batch b = RandomWideBatch(GetParam(), 500);
  std::vector<ExprPtr> exprs = {
      Expr::Binary(BinaryOp::kAdd, Expr::Column("k"),
                   Expr::Literal(Value(int64_t{7}))),
      Expr::Binary(BinaryOp::kMul, Expr::Column("v"),
                   Expr::Column("v")),
      Expr::Column("s"),
  };
  std::vector<std::string> names = {"k7", "v2", "s"};
  Batch got = CollectColumnar(MakeProject(ColSourceOf(b), exprs, names));
  ExpectBatchesBitEq(got, RowsOf(got.schema, ref::Project(b, exprs)));
}

TEST_P(OperatorParityTest, LimitUnderSelectionIsLogical) {
  // LIMIT over a filtered stream must count surviving (logical) rows,
  // not physical storage rows.
  Batch b = RandomWideBatch(GetParam(), 500);
  auto pred = Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                           Expr::Literal(Value(int64_t{0})));
  std::vector<Row> want = ref::Filter(b, pred);
  want.resize(std::min<std::size_t>(want.size(), 37));
  Batch got =
      CollectColumnar(MakeLimit(MakeFilter(ColSourceOf(b), pred), 37));
  ExpectBatchesBitEq(got, RowsOf(b.schema, want));
}

std::vector<AggSpec> AllAggs() {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kSum, Expr::Column("k"), "sum_k"});
  aggs.push_back({AggKind::kCount, nullptr, "cnt"});
  aggs.push_back({AggKind::kCount, Expr::Column("v"), "cnt_v"});
  aggs.push_back({AggKind::kMin, Expr::Column("v"), "min_v"});
  aggs.push_back({AggKind::kMax, Expr::Column("k"), "max_k"});
  aggs.push_back({AggKind::kAvg, Expr::Column("v"), "avg_v"});
  return aggs;
}

TEST_P(OperatorParityTest, HashAggregateParity) {
  Batch b = RandomWideBatch(GetParam(), 700);
  std::vector<ExprPtr> groups = {Expr::Column("s")};
  std::vector<std::string> names = {"s"};
  Batch got = CollectColumnar(
      MakeHashAggregate(ColSourceOf(b), groups, names, AllAggs()));
  ExpectBatchesBitEq(got, RowsOf(got.schema, ref::Aggregate(b, groups, AllAggs())));
}

TEST_P(OperatorParityTest, StreamedAggregateParity) {
  // Sorted input fed through 7-row morsels, so most groups straddle
  // batch boundaries; grouped by a computed key with NULLs.
  Batch b = RandomWideBatch(GetParam(), 700);
  std::vector<ExprPtr> groups = {
      Expr::Binary(BinaryOp::kDiv, Expr::Column("k"),
                   Expr::Literal(Value(int64_t{8})))};
  std::vector<std::string> names = {"k8"};
  std::vector<SortKey> keys = {{groups[0], true}};
  Batch sorted = RowsOf(b.schema, ref::Sort(b, keys));
  Result<ColumnBatch> cb = ToColumnBatch(sorted);
  ASSERT_TRUE(cb.ok());
  std::vector<ColumnBatch> batches;
  batches.push_back(*std::move(cb));
  Batch got = CollectColumnar(MakeStreamedAggregate(
      MakeSlicedSource(b.schema, std::move(batches), 7), groups, names,
      AllAggs()));
  ExpectBatchesBitEq(
      got, RowsOf(got.schema, ref::Aggregate(sorted, groups, AllAggs())));
}

TEST_P(OperatorParityTest, HashJoinParity) {
  Batch probe = RandomWideBatch(GetParam(), 400);
  Batch build = RandomWideBatch(GetParam() ^ 0xBEEF, 80);
  for (const JoinType jt : {JoinType::kInner, JoinType::kLeftOuter}) {
    std::vector<ExprPtr> lk = {Expr::Column("k")};
    std::vector<ExprPtr> rk = {Expr::Column("k")};
    Batch got = CollectColumnar(
        MakeHashJoin(ColSourceOf(probe), ColSourceOf(build), lk, rk, jt));
    ExpectBatchesBitEq(got,
                       RowsOf(got.schema, ref::Join(probe, build, lk, rk, jt)));
  }
}

TEST_P(OperatorParityTest, HashPartitionParity) {
  Batch b = RandomWideBatch(GetParam(), 600);
  std::vector<ExprPtr> keys = {Expr::Column("k"), Expr::Column("s")};
  const int nparts = 7;
  Result<ColumnBatch> cb = ToColumnBatch(b);
  ASSERT_TRUE(cb.ok());
  Result<std::vector<ColumnBatch>> got =
      GatherPartitions(*cb, keys, nparts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), static_cast<std::size_t>(nparts));
  ExpectValidPartitioning(b, keys, *got);
  // A computed key routes exactly like the plain column it equals.
  std::vector<ExprPtr> computed = {
      Expr::Binary(BinaryOp::kAdd, Expr::Column("k"),
                   Expr::Literal(Value(int64_t{0}))),
      Expr::Column("s")};
  Result<std::vector<ColumnBatch>> again =
      GatherPartitions(*cb, computed, nparts);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (std::size_t p = 0; p < got->size(); ++p) {
    ExpectBatchesBitEq(ToRowBatch((*again)[p]), ToRowBatch((*got)[p]));
  }
}

TEST_P(OperatorParityTest, FilteredPartitionParity) {
  // Partitioning a batch that still carries a selection vector must
  // route exactly the surviving rows, as its dense copy would.
  Batch b = RandomWideBatch(GetParam(), 600);
  auto pred = Expr::Binary(BinaryOp::kGe, Expr::Column("k"),
                           Expr::Literal(Value(int64_t{0})));
  std::vector<ExprPtr> keys = {Expr::Column("k")};
  OperatorPtr vec = MakeFilter(ColSourceOf(b), pred);
  ASSERT_TRUE(vec->Open().ok());
  Result<std::optional<ColumnBatch>> filtered = vec->Next();
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  ASSERT_TRUE(filtered->has_value());
  ASSERT_TRUE((*filtered)->selection.has_value());  // no row copies made
  Result<std::vector<ColumnBatch>> got =
      GatherPartitions(**filtered, keys, 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectValidPartitioning(RowsOf(b.schema, ref::Filter(b, pred)), keys, *got);
  ColumnBatch dense = **filtered;
  dense.Flatten();
  Result<std::vector<ColumnBatch>> want = GatherPartitions(dense, keys, 5);
  ASSERT_TRUE(want.ok());
  for (std::size_t p = 0; p < want->size(); ++p) {
    ExpectBatchesBitEq(ToRowBatch((*got)[p]), ToRowBatch((*want)[p]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorParityTest,
                         ::testing::Range<uint64_t>(1, 17));


// ---- StreamedAggregate edge cases -------------------------------------

Batch StreamedAgg(const Batch& in, std::vector<ExprPtr> groups,
                  std::vector<std::string> names, std::vector<AggSpec> aggs,
                  std::size_t morsel_rows = 1024) {
  Result<ColumnBatch> cb = ToColumnBatch(in);
  EXPECT_TRUE(cb.ok()) << cb.status().ToString();
  std::vector<ColumnBatch> batches;
  batches.push_back(*std::move(cb));
  return CollectColumnar(MakeStreamedAggregate(
      MakeSlicedSource(in.schema, std::move(batches), morsel_rows),
      std::move(groups), std::move(names), std::move(aggs)));
}

TEST(StreamedAggregateTest, NullGroupKeysFormOneGroup) {
  Batch in;
  in.schema = Schema({{"g", DataType::kInt64}, {"x", DataType::kInt64}});
  in.rows = {{Value::Null(), Value(int64_t{1})},
             {Value::Null(), Value(int64_t{2})},
             {Value(int64_t{4}), Value(int64_t{3})}};
  Batch got = StreamedAgg(in, {Expr::Column("g")}, {"g"},
                          {{AggKind::kSum, Expr::Column("x"), "s"}});
  ASSERT_EQ(got.num_rows(), 2u);
  EXPECT_TRUE(got.rows[0][0].is_null());
  EXPECT_EQ(got.rows[0][1], Value(int64_t{3}));
  EXPECT_EQ(got.rows[1][0], Value(int64_t{4}));
  EXPECT_EQ(got.rows[1][1], Value(int64_t{3}));
}

TEST(StreamedAggregateTest, IntAndFloatKeysShareAGroup) {
  // int64 cells under a float64 key field widen as they load, so 3 and
  // 3.0 are one group, keyed 3.0.
  Batch in;
  in.schema = Schema({{"g", DataType::kFloat64}, {"x", DataType::kInt64}});
  in.rows = {{Value(int64_t{3}), Value(int64_t{1})},
             {Value(3.0), Value(int64_t{10})},
             {Value(int64_t{3}), Value(int64_t{100})},
             {Value(3.5), Value(int64_t{1000})}};
  Batch got = StreamedAgg(in, {Expr::Column("g")}, {"g"},
                          {{AggKind::kSum, Expr::Column("x"), "s"}});
  ASSERT_EQ(got.num_rows(), 2u);
  EXPECT_TRUE(got.rows[0][0].is_float64());
  EXPECT_EQ(got.rows[0][0].float64(), 3.0);
  EXPECT_EQ(got.rows[0][1], Value(int64_t{111}));
  EXPECT_EQ(got.rows[1][0], Value(3.5));
  Result<ColumnBatch> widened = ToColumnBatch(in);
  ASSERT_TRUE(widened.ok()) << widened.status().ToString();
  ExpectBatchesBitEq(
      got, RowsOf(got.schema,
                  ref::Aggregate(ToRowBatch(*widened), {Expr::Column("g")},
                                 {{AggKind::kSum, Expr::Column("x"), "s"}})));
}

TEST(StreamedAggregateTest, EmptyInputGlobalAndGrouped) {
  Batch in;
  in.schema = Schema({{"g", DataType::kInt64}, {"x", DataType::kInt64}});
  std::vector<AggSpec> aggs = {{AggKind::kCount, nullptr, "c"},
                               {AggKind::kSum, Expr::Column("x"), "s"}};
  Batch global = StreamedAgg(in, {}, {}, aggs);
  ASSERT_EQ(global.num_rows(), 1u);
  EXPECT_EQ(global.rows[0][0], Value(int64_t{0}));
  EXPECT_TRUE(global.rows[0][1].is_null());
  Batch grouped = StreamedAgg(in, {Expr::Column("g")}, {"g"}, aggs);
  EXPECT_EQ(grouped.num_rows(), 0u);
  EXPECT_EQ(grouped.schema.num_fields(), 3u);
}

TEST(StreamedAggregateTest, CountColumnSkipsNulls) {
  Batch in;
  in.schema = Schema({{"g", DataType::kInt64}, {"x", DataType::kInt64}});
  in.rows = {{Value(int64_t{1}), Value::Null()},
             {Value(int64_t{1}), Value(int64_t{5})},
             {Value(int64_t{2}), Value::Null()}};
  Batch got = StreamedAgg(in, {Expr::Column("g")}, {"g"},
                          {{AggKind::kCount, Expr::Column("x"), "cx"},
                           {AggKind::kCount, nullptr, "c"}});
  ASSERT_EQ(got.num_rows(), 2u);
  EXPECT_EQ(got.rows[0][1], Value(int64_t{1}));
  EXPECT_EQ(got.rows[0][2], Value(int64_t{2}));
  EXPECT_EQ(got.rows[1][1], Value(int64_t{0}));
  EXPECT_EQ(got.rows[1][2], Value(int64_t{1}));
}

TEST(StreamedAggregateTest, GroupsStraddleMorsels) {
  // 3-row morsels over runs of 5 equal keys: every group spans two or
  // three batches and must still come out whole.
  Batch in;
  in.schema = Schema({{"g", DataType::kString}, {"x", DataType::kInt64}});
  for (int64_t i = 0; i < 20; ++i) {
    in.rows.push_back({Value("g" + std::to_string(i / 5)), Value(i)});
  }
  Batch got = StreamedAgg(in, {Expr::Column("g")}, {"g"},
                          {{AggKind::kSum, Expr::Column("x"), "s"},
                           {AggKind::kMin, Expr::Column("x"), "lo"}},
                          /*morsel_rows=*/3);
  ASSERT_EQ(got.num_rows(), 4u);
  for (int64_t g = 0; g < 4; ++g) {
    EXPECT_EQ(got.rows[g][0], Value("g" + std::to_string(g)));
    EXPECT_EQ(got.rows[g][1], Value(25 * g + 10));
    EXPECT_EQ(got.rows[g][2], Value(5 * g));
  }
}

}  // namespace
}  // namespace swift
