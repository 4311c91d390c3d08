#include "exec/serde.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/compress.h"
#include "reference_serde.h"

namespace swift {
namespace {

Batch SampleBatch() {
  Batch b;
  b.schema = Schema({{"id", DataType::kInt64},
                     {"price", DataType::kFloat64},
                     {"name", DataType::kString},
                     {"opt", DataType::kNull}});
  b.rows = {{Value(int64_t{1}), Value(3.25), Value("widget"), Value::Null()},
            {Value(int64_t{-7}), Value(-0.5), Value(""), Value::Null()}};
  return b;
}

std::string Hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto b = static_cast<uint8_t>(ch);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

TEST(SerdeTest, RoundTripPreservesEverything) {
  Batch b = SampleBatch();
  std::string bytes = SerializeBatch(b);
  auto r = DeserializeBatch(bytes);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->schema, b.schema);
  ASSERT_EQ(r->num_rows(), b.num_rows());
  for (std::size_t i = 0; i < b.rows.size(); ++i) {
    ASSERT_EQ(r->rows[i].size(), b.rows[i].size());
    for (std::size_t c = 0; c < b.rows[i].size(); ++c) {
      EXPECT_EQ(r->rows[i][c].Compare(b.rows[i][c]), 0)
          << "row " << i << " col " << c;
      EXPECT_EQ(r->rows[i][c].type(), b.rows[i][c].type());
    }
  }
}

TEST(SerdeTest, EmptyBatch) {
  Batch b;
  b.schema = Schema({{"x", DataType::kInt64}});
  auto r = DeserializeBatch(SerializeBatch(b));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 0u);
  EXPECT_EQ(r->schema.num_fields(), 1u);
}

TEST(SerdeTest, RejectsBadMagic) {
  std::string bytes = SerializeBatch(SampleBatch());
  bytes[0] = 'X';
  EXPECT_EQ(DeserializeBatch(bytes).status().code(), StatusCode::kIOError);
}

TEST(SerdeTest, RejectsTruncation) {
  std::string bytes = SerializeBatch(SampleBatch());
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{5}}) {
    EXPECT_FALSE(DeserializeBatch(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(SerdeTest, RejectsTrailingGarbage) {
  std::string bytes = SerializeBatch(SampleBatch()) + "junk";
  EXPECT_EQ(DeserializeBatch(bytes).status().code(), StatusCode::kIOError);
}

TEST(SerdeTest, V1MagicFailsClosed) {
  // A buffer in the retired self-describing format ("SWFT": u32 field
  // count, u32-length names, u8 types, u64 row count, then per row a u32
  // cell count and tagged cells) is foreign bytes now: both decoders
  // must reject it, raw and inside a compressed frame.
  std::string v1;
  ref::AppendLittleEndian(&v1, 0x53574654, 4);  // "SWFT"
  ref::AppendLittleEndian(&v1, 1, 4);           // one field
  ref::AppendLittleEndian(&v1, 1, 4);
  v1 += "x";
  v1.push_back(static_cast<char>(DataType::kInt64));
  ref::AppendLittleEndian(&v1, 1, 8);  // one row
  ref::AppendLittleEndian(&v1, 1, 4);  // one cell
  v1.push_back(static_cast<char>(DataType::kInt64));
  ref::AppendLittleEndian(&v1, 42, 8);
  ASSERT_EQ(v1.substr(0, 4), "TFWS");  // little-endian "SWFT"
  for (const std::string& bytes : {v1, CompressFrame(v1)}) {
    Result<Batch> rows = DeserializeBatch(bytes);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kIOError);
    Result<ColumnBatch> cols = DeserializeColumnBatch(bytes);
    ASSERT_FALSE(cols.ok());
    EXPECT_EQ(cols.status().code(), StatusCode::kIOError);
    EXPECT_NE(cols.status().ToString().find("bad batch magic"),
              std::string::npos)
        << cols.status().ToString();
  }
}

TEST(SerdeTest, WireBytesArePinned) {
  // Checked-in bytes for two tiny batches. Both the engine's encoder and
  // the reference encoder must reproduce them, so a change to either (or
  // to the format) fails here. A third buffer pins the retired tagged
  // column mode, which only the reference encoder still writes.
  Batch typed;  // typed int/float/string columns with NULLs
  typed.schema = Schema({{"i", DataType::kInt64},
                         {"f", DataType::kFloat64},
                         {"s", DataType::kString}});
  typed.rows = {{Value(int64_t{1}), Value(0.5), Value("ab")},
                {Value::Null(), Value(-0.0), Value::Null()},
                {Value(int64_t{-2}), Value::Null(), Value("")}};
  Batch mixed;  // a tagged column and a kNull column
  mixed.schema = Schema({{"x", DataType::kInt64}, {"n", DataType::kNull}});
  mixed.rows = {{Value(int64_t{1}), Value::Null()},
                {Value("a"), Value::Null()},
                {Value(2.5), Value::Null()}};
  Batch one_row;  // an int64 column and a kNull column
  one_row.schema = mixed.schema;
  one_row.rows = {{Value(int64_t{1}), Value::Null()}};
  const std::string kTyped =
      "32465753"                                       // magic "SWF2"
      "03" "016901" "016602" "017303"                  // 3 fields
      "03"                                             // 3 rows
      "00" "05" "0100000000000000" "feffffffffffffff"  // i: 1, NULL, -2
      "00" "03" "000000000000e03f" "0000000000000080"  // f: 0.5, -0.0, NULL
      "00" "05" "026162" "00"                          // s: "ab", NULL, ""
      "f1388e2e";                                      // CRC32
  const std::string kMixed =
      "32465753" "02" "017801" "016e00" "03"
      "01" "010100000000000000" "030161" "020000000000000440"  // x: tagged
      "00" "00"                                                // n: NULLs
      "03e61f30";
  const std::string kOneRow =
      "32465753" "02" "017801" "016e00" "01"
      "00" "01" "0100000000000000"  // x: typed, one int64
      "00" "00"                     // n: NULL
      "76358744";
  EXPECT_EQ(Hex(SerializeBatch(typed)), kTyped);
  EXPECT_EQ(Hex(ref::Serialize(typed)), kTyped);
  EXPECT_EQ(Hex(SerializeBatch(one_row)), kOneRow);
  EXPECT_EQ(Hex(ref::Serialize(one_row)), kOneRow);
  // `mixed` cannot become a ColumnBatch, and its tagged bytes, CRC and
  // all, decode to nothing.
  EXPECT_EQ(ToColumnBatch(mixed).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Hex(ref::Serialize(mixed)), kMixed);
  Result<ColumnBatch> tagged = DeserializeColumnBatch(ref::Serialize(mixed));
  ASSERT_FALSE(tagged.ok());
  EXPECT_EQ(tagged.status().code(), StatusCode::kIOError);
}

TEST(SerdeTest, V2CrcDetectsEveryByteFlip) {
  const std::string bytes = SerializeBatch(SampleBatch());
  for (std::size_t pos = 4; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    auto r = DeserializeBatch(corrupt);
    EXPECT_FALSE(r.ok()) << "flip at " << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  }
}

TEST(SerdeTest, MixedTypeColumnRoundTrips) {
  // The one mixed column a batch may hold: int64 cells under a float64
  // field widen on the way in, so the column goes typed and comes back
  // all float64.
  Batch b;
  b.schema = Schema({{"x", DataType::kFloat64}});
  b.rows = {{Value(int64_t{1})}, {Value(-0.0)}, {Value::Null()},
            {Value(2.5)}};
  auto r = DeserializeBatch(SerializeBatch(b));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 4u);
  EXPECT_EQ(r->rows[0][0].type(), DataType::kFloat64);
  EXPECT_EQ(r->rows[0][0].float64(), 1.0);
  EXPECT_TRUE(std::signbit(r->rows[1][0].float64()));
  EXPECT_TRUE(r->rows[2][0].is_null());
  EXPECT_EQ(r->rows[3][0].float64(), 2.5);
}

TEST(SerdeDeathTest, RaggedBatchIsACallerBug) {
  // No engine path builds a ragged Batch; serializing one aborts with
  // ToColumnBatch's message instead of writing a second format.
  Batch b;
  b.schema = Schema({{"x", DataType::kInt64}, {"y", DataType::kString}});
  b.rows = {{Value(int64_t{1}), Value("a")}, {Value(int64_t{2})}};
  EXPECT_DEATH(SerializeBatch(b),
               "ragged batch: row 1 has 1 cells, schema has 2");
}

TEST(SerdeDeathTest, IllTypedBatchIsACallerBug) {
  // Nor does any build a cell its field cannot take.
  Batch b;
  b.schema = Schema({{"x", DataType::kInt64}});
  b.rows = {{Value(int64_t{1})}, {Value("a")}};
  EXPECT_DEATH(SerializeBatch(b),
               "row 1 column 'x': string cell under a int64 field");
}

TEST(SerdeTest, AllNullTypedColumnRoundTrips) {
  Batch b;
  b.schema = Schema({{"opt", DataType::kNull}, {"v", DataType::kInt64}});
  b.rows = {{Value::Null(), Value(int64_t{1})},
            {Value::Null(), Value::Null()}};
  auto r = DeserializeBatch(SerializeBatch(b));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows[0][0].is_null());
  EXPECT_TRUE(r->rows[1][1].is_null());
  EXPECT_EQ(r->rows[0][1].int64(), 1);
}

TEST(SerdeTest, LargeBatchRoundTrip) {
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64}, {"s", DataType::kString}});
  for (int64_t i = 0; i < 5000; ++i) {
    b.rows.push_back({Value(i), Value(std::string(i % 40, 'a'))});
  }
  auto r = DeserializeBatch(SerializeBatch(b));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 5000u);
  EXPECT_EQ(r->rows[4999][0].int64(), 4999);
}

}  // namespace
}  // namespace swift
