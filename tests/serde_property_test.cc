// Property tests: random batches must round-trip through the shuffle
// wire format byte-exactly, the encoder must match the naive reference
// encoder in reference_serde.h for every column shape (rep, NULLs,
// selection), and corrupt input (truncations, byte flips, random
// garbage, a tagged column under a valid CRC) must never crash or OOM
// the decoder. The format carries a CRC32 footer, so any byte flip past
// the magic must come back as IOError.

#include <gtest/gtest.h>

#include <limits>

#include "common/compress.h"
#include "common/rng.h"
#include "exec/serde.h"
#include "reference_serde.h"

namespace swift {
namespace {

Value RandomCell(Rng& rng, DataType type) {
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt64:
      return Value(static_cast<int64_t>(rng.Next()));
    case DataType::kFloat64:
      switch (rng.UniformInt(0, 5)) {
        case 0:
          return Value(std::numeric_limits<double>::quiet_NaN());
        case 1:
          return Value(-0.0);
        default:
          return Value(rng.Uniform(-1e12, 1e12));
      }
    case DataType::kString:
      break;
  }
  std::string s(static_cast<std::size_t>(rng.UniformInt(0, 64)), 'x');
  for (char& ch : s) ch = static_cast<char>(rng.UniformInt(0, 255));
  return Value(std::move(s));
}

// A row batch whose cells are NULL or of their field's type, except that
// a float64 field also gets int64 cells, which the encoder widens.
Batch RandomBatch(uint64_t seed) {
  Rng rng(seed);
  const int ncols = static_cast<int>(rng.UniformInt(1, 6));
  std::vector<Field> fields;
  for (int c = 0; c < ncols; ++c) {
    fields.push_back(Field{
        "c" + std::to_string(c),
        static_cast<DataType>(rng.UniformInt(0, 3))});
  }
  Batch b;
  b.schema = Schema(std::move(fields));
  const int nrows = static_cast<int>(rng.UniformInt(0, 200));
  for (int r = 0; r < nrows; ++r) {
    Row row;
    for (int c = 0; c < ncols; ++c) {
      const DataType t = b.schema.field(static_cast<std::size_t>(c)).type;
      if (rng.UniformInt(0, 3) == 0) {
        row.push_back(Value::Null());
      } else if (t == DataType::kFloat64 && rng.UniformInt(0, 3) == 0) {
        row.push_back(Value(rng.UniformInt(-(int64_t{1} << 53),
                                           int64_t{1} << 53)));
      } else {
        row.push_back(RandomCell(rng, t));
      }
    }
    b.rows.push_back(std::move(row));
  }
  return b;
}

// The cell `v` of a float64 field comes back as: int64 cells widened.
Value AsField(const Value& v, DataType type) {
  return type == DataType::kFloat64 && v.is_int64()
             ? Value(static_cast<double>(v.int64()))
             : v;
}

// A ColumnBatch of any shape the encoder can be handed: column k of
// batch `seed` is, in turn, typed with NULLs mixed in, typed without
// NULLs, a kNull column under a kNull field, or all-NULL in its field
// type's rep; batch `seed` has no selection, a random subset or an empty
// one (seed % 3); and zero-field and zero-row batches come up too. Bind
// types every column and a column keeps its rep, so a column's rep is
// its field's type: no other shape exists.
ColumnBatch RandomColumnBatch(uint64_t seed) {
  Rng rng(seed);
  const int ncols = static_cast<int>(rng.UniformInt(0, 5));
  const std::size_t nrows =
      rng.UniformInt(0, 3) == 0
          ? 0
          : static_cast<std::size_t>(rng.UniformInt(1, 120));
  std::vector<Field> fields;
  ColumnBatch cb;
  for (int c = 0; c < ncols; ++c) {
    DataType type = static_cast<DataType>(rng.UniformInt(0, 3));
    enum { kTyped, kDense, kNullRep, kAllNull };
    const int kind = static_cast<int>((seed + static_cast<uint64_t>(c)) % 4);
    if (kind == kNullRep) type = DataType::kNull;
    fields.push_back(Field{"c" + std::to_string(c), type});
    if (kind == kNullRep) {
      cb.columns.push_back(ColumnVector::MakeNull(nrows));
      continue;
    }
    ColumnVector col = ColumnVector::OfType(type);
    for (std::size_t r = 0; r < nrows; ++r) {
      if (kind == kAllNull || (kind == kTyped && rng.UniformInt(0, 5) == 0)) {
        col.AppendNull();
      } else {
        col.Append(RandomCell(rng, type));
      }
    }
    cb.columns.push_back(std::move(col));
  }
  cb.schema = Schema(std::move(fields));
  cb.physical_rows = nrows;
  if (seed % 3 != 0) {
    std::vector<uint32_t> sel;
    for (std::size_t r = 0; r < nrows && seed % 3 == 1; ++r) {
      if (rng.UniformInt(0, 1) == 0) sel.push_back(static_cast<uint32_t>(r));
    }
    cb.selection = std::move(sel);
  }
  return cb;
}

class SerdePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdePropertyTest, RoundTripExact) {
  Batch b = RandomBatch(GetParam());
  const std::string bytes = SerializeBatch(b);
  auto back = DeserializeBatch(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->schema, b.schema);
  ASSERT_EQ(back->num_rows(), b.num_rows());
  for (std::size_t r = 0; r < b.rows.size(); ++r) {
    for (std::size_t c = 0; c < b.rows[r].size(); ++c) {
      const Value want = AsField(b.rows[r][c], b.schema.field(c).type);
      EXPECT_EQ(back->rows[r][c].type(), want.type());
      EXPECT_EQ(back->rows[r][c].Compare(want), 0);
    }
  }
  // Serialization is deterministic.
  EXPECT_EQ(SerializeBatch(*back), bytes);
}

TEST_P(SerdePropertyTest, SingleByteCorruptionNeverCrashes) {
  Batch b = RandomBatch(GetParam());
  const std::string bytes = SerializeBatch(b);
  if (bytes.empty()) return;
  Rng rng(GetParam() ^ 0xC0FFEE);
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupt = bytes;
    const std::size_t pos = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 + rng.UniformInt(0, 254)));
    auto result = DeserializeBatch(corrupt);  // must not crash or hang
    (void)result;
  }
}

TEST_P(SerdePropertyTest, TruncationAlwaysErrors) {
  Batch b = RandomBatch(GetParam());
  const std::string bytes = SerializeBatch(b);
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t cut = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    EXPECT_FALSE(DeserializeBatch(bytes.substr(0, cut)).ok())
        << "cut at " << cut << " of " << bytes.size();
  }
}

TEST_P(SerdePropertyTest, V2ByteFlipAlwaysIOError) {
  Batch b = RandomBatch(GetParam());
  const std::string bytes = SerializeBatch(b);
  Rng rng(GetParam() ^ 0xD00F);
  // Any flip past the 4-byte magic leaves the buffer on the v2 decode
  // path, where the CRC32 footer must reject it before parsing.
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupt = bytes;
    const std::size_t pos = static_cast<std::size_t>(
        rng.UniformInt(4, static_cast<int64_t>(bytes.size()) - 1));
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 + rng.UniformInt(0, 254)));
    auto result = DeserializeBatch(corrupt);
    ASSERT_FALSE(result.ok()) << "flip at " << pos;
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST_P(SerdePropertyTest, V2MultiByteCorruptionAlwaysIOError) {
  Batch b = RandomBatch(GetParam());
  const std::string bytes = SerializeBatch(b);
  Rng rng(GetParam() ^ 0xABCD);
  for (int trial = 0; trial < 16; ++trial) {
    std::string corrupt = bytes;
    const int flips = static_cast<int>(rng.UniformInt(2, 8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.UniformInt(4, static_cast<int64_t>(bytes.size()) - 1));
      corrupt[pos] =
          static_cast<char>(corrupt[pos] ^ (1 + rng.UniformInt(0, 254)));
    }
    if (corrupt == bytes) continue;  // flips cancelled out
    auto result = DeserializeBatch(corrupt);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST_P(SerdePropertyTest, RandomGarbageNeverCrashes) {
  Rng rng(GetParam() ^ 0x6A4BA6E);
  for (int trial = 0; trial < 16; ++trial) {
    std::string garbage(static_cast<std::size_t>(rng.UniformInt(0, 512)), '\0');
    for (char& ch : garbage) {
      ch = static_cast<char>(rng.UniformInt(0, 255));
    }
    if (trial % 4 == 0 && garbage.size() >= 4) {
      // Bias some trials onto the batch and frame decode paths.
      const char* magic = (trial % 8 == 0) ? "SWZ1" : "SWF2";
      garbage[0] = magic[3];  // little-endian u32
      garbage[1] = magic[2];
      garbage[2] = magic[1];
      garbage[3] = magic[0];
    }
    auto result = DeserializeBatch(garbage);  // must not crash or OOM
    (void)result;
  }
}

TEST_P(SerdePropertyTest, CompressedFrameRoundTripExact) {
  // The shuffle writer may wrap a batch in a compressed frame
  // (common/compress.h); the decoder must hand back the exact batch with
  // no caller-side negotiation.
  Batch b = RandomBatch(GetParam());
  const std::string bytes = SerializeBatch(b);
  auto back = DeserializeBatch(CompressFrame(bytes));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeBatch(*back), bytes);
}

TEST_P(SerdePropertyTest, CompressedFrameByteFlipFailsClosed) {
  Batch b = RandomBatch(GetParam());
  const std::string frame = CompressFrame(SerializeBatch(b));
  Rng rng(GetParam() ^ 0xF4A3E);
  // Any flip past the frame magic must surface as IOError: header
  // validation, the frame CRC over stored bytes, or (for a flip the
  // frame layer cannot see) the inner v2 CRC footer.
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupt = frame;
    const std::size_t pos = static_cast<std::size_t>(
        rng.UniformInt(4, static_cast<int64_t>(frame.size()) - 1));
    corrupt[pos] =
        static_cast<char>(corrupt[pos] ^ (1 + rng.UniformInt(0, 254)));
    auto result = DeserializeBatch(corrupt);
    ASSERT_FALSE(result.ok()) << "flip at " << pos;
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST_P(SerdePropertyTest, CompressedFrameTruncationFailsClosed) {
  Batch b = RandomBatch(GetParam());
  const std::string frame = CompressFrame(SerializeBatch(b));
  Rng rng(GetParam() ^ 0x7C07);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t cut = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(frame.size()) - 1));
    EXPECT_FALSE(DeserializeBatch(frame.substr(0, cut)).ok())
        << "cut at " << cut << " of " << frame.size();
  }
}

TEST_P(SerdePropertyTest, ColumnBatchMatchesReferenceEncoder) {
  for (uint64_t k = 0; k < 8; ++k) {
    const ColumnBatch cb = RandomColumnBatch(GetParam() * 8 + k);
    const std::string bytes = SerializeColumnBatch(cb);
    EXPECT_EQ(bytes, ref::Serialize(ToRowBatch(cb))) << "batch " << k;
    Result<ColumnBatch> back = DeserializeColumnBatch(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->num_rows(), cb.num_rows());
    // The encoding keeps every value's type and bits (-0.0 and NaN
    // included), so a bit-exact decode re-encodes to the same bytes.
    EXPECT_EQ(ref::Serialize(ToRowBatch(*back)), bytes) << "batch " << k;
    EXPECT_EQ(SerializeColumnBatch(*back), bytes) << "batch " << k;
  }
}

TEST_P(SerdePropertyTest, TaggedColumnFailsClosed) {
  // One column of batch `seed` carries a cell its field cannot take, so
  // the reference encoder writes that column in the retired tagged mode
  // under a valid CRC. The decoder refuses it, raw and framed.
  Batch b = RandomBatch(GetParam());
  Rng rng(GetParam() ^ 0x7A66);
  const std::size_t c = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<int64_t>(b.schema.num_fields()) - 1));
  const DataType type = b.schema.field(c).type;
  Row row(b.schema.num_fields(), Value::Null());
  row[c] = type == DataType::kString ? Value(int64_t{7}) : Value("seven");
  const int64_t at =
      rng.UniformInt(0, static_cast<int64_t>(b.num_rows()));
  b.rows.insert(b.rows.begin() + at, std::move(row));
  const std::string bytes = ref::Serialize(b);
  for (const std::string& buf : {bytes, CompressFrame(bytes)}) {
    Result<ColumnBatch> got = DeserializeColumnBatch(buf);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kIOError);
    EXPECT_NE(got.status().message().find("bad column mode 1"),
              std::string::npos)
        << got.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdePropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace swift
