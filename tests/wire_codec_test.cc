// Wire codec suite for the one-copy shuffle hop (ctest label serde_smoke).
//
//  - CRC-32C: the three-stream kernel equals a bitwise reference at
//    every length around its block boundaries, at every alignment, and
//    chains through its seed.
//  - Gather encoder: random pieces (NULLs, all-NULL columns of typed
//    fields, empty pieces, selections, repeated rows) encode to
//    exactly the bytes SerializeColumnBatch gives the gathered batch,
//    and the reference encoder of reference_serde.h gives its rows.
//  - Wire source: the morsels WirePayload decodes, concatenated, equal
//    DeserializeColumnBatch, for every morsel size and row count around
//    byte and morsel boundaries.
//  - Fail-closed: every single-byte flip and every truncation of a set
//    of payloads (plain and compressed) is rejected by WirePayload::Open,
//    the validation a task runs at fetch, so no morsel is ever decoded
//    from a damaged payload. With the CRC stamped afresh over the
//    damage, Open's remaining checks must still reject the payload or
//    leave it decodable inside its bounds.
//  - Consumer schema: a payload opened under the schema its consumer
//    reads must carry exactly that schema in its header (IOError
//    otherwise), and its morsels share it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/compress.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/morsel.h"
#include "exec/serde.h"
#include "reference_serde.h"

namespace swift {
namespace {

// ---- CRC-32C -----------------------------------------------------------

uint32_t BitwiseCrc32c(std::string_view data, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : data) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.UniformInt(0, 255));
  return s;
}

TEST(Crc32cStreamsTest, MatchesBitwiseReferenceAroundBlockBoundaries) {
  EXPECT_EQ(Crc32("123456789"), 0xE3069283u);  // the CRC-32C check value
  const std::string data = RandomBytes(3 * 8192 * 2 + 3 * 256 * 3 + 64, 7);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 80; ++n) lengths.push_back(n);
  for (const std::size_t block : {std::size_t{256}, std::size_t{8192}}) {
    for (const std::size_t k : {1, 2, 3, 4, 6}) {
      for (int d = -9; d <= 9; ++d) {
        const long n = static_cast<long>(k * block) + d;
        if (n >= 0) lengths.push_back(static_cast<std::size_t>(n));
      }
    }
  }
  lengths.push_back(3 * 8192 + 3 * 256 + 5);
  for (const std::size_t n : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      if (offset + n > data.size()) continue;
      const std::string_view v(data.data() + offset, n);
      ASSERT_EQ(Crc32(v), BitwiseCrc32c(v)) << n << " bytes at +" << offset;
    }
  }
}

TEST(Crc32cStreamsTest, SeedChainsAcrossSplits) {
  const std::string data = RandomBytes(100000, 11);
  const uint32_t whole = Crc32(data);
  for (const std::size_t cut : {0, 1, 255, 8192, 24575, 24576, 50001, 100000}) {
    const std::string_view v(data);
    EXPECT_EQ(Crc32(v.substr(cut), Crc32(v.substr(0, cut))), whole) << cut;
  }
}

// ---- Random columnar pieces ---------------------------------------------

Schema PieceSchema() {
  return Schema({{"i", DataType::kInt64},
                 {"f", DataType::kFloat64},
                 {"s", DataType::kString},
                 {"n", DataType::kNull},
                 {"j", DataType::kInt64}});  // never NULL
}

// A batch of `rows` physical rows of PieceSchema. `null_pct` of the
// nullable cells are NULL; with `all_null`, every cell of columns i and
// s is NULL, as a morsel of a NULL-only stretch arrives.
ColumnBatch RandomPieceBatch(std::size_t rows, int null_pct, bool all_null,
                             Rng* rng) {
  const Schema schema = PieceSchema();
  ColumnBatch b = EmptyBatchOf(schema);
  b.physical_rows = rows;
  const auto null = [&] {
    return rng->UniformInt(0, 99) < null_pct;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    if (null()) {
      b.columns[0].AppendNull();
    } else {
      b.columns[0].AppendInt64(static_cast<int64_t>(rng->Next()));
    }
    if (null()) {
      b.columns[1].AppendNull();
    } else {
      b.columns[1].AppendFloat64(rng->Uniform(-1e9, 1e9));
    }
    if (null()) {
      b.columns[2].AppendNull();
    } else {
      // Lengths straddle the one-byte varint limit.
      std::string s(static_cast<std::size_t>(rng->UniformInt(0, 140)), 'x');
      for (char& c : s) c = static_cast<char>(rng->UniformInt(0, 255));
      b.columns[2].AppendString(s);
    }
    b.columns[3].AppendNull();
    b.columns[4].AppendInt64(rng->UniformInt(-5, 5));
  }
  if (all_null) {
    for (const std::size_t c : {std::size_t{0}, std::size_t{2}}) {
      b.columns[c] = ColumnVector::OfType(schema.field(c).type);
      for (std::size_t r = 0; r < rows; ++r) b.columns[c].AppendNull();
    }
  }
  return b;
}

// Random rows of `b`: all of them in order (no row list), a random
// subset in order, random rows with repeats, or none.
struct PieceRows {
  std::vector<uint32_t> rows;
  bool dense = false;
};

PieceRows RandomRows(const ColumnBatch& b, Rng* rng) {
  PieceRows out;
  const std::size_t n = b.physical_rows;
  switch (rng->UniformInt(0, 3)) {
    case 0:
      out.dense = true;
      break;
    case 1:
      for (uint32_t r = 0; r < n; ++r) {
        if (rng->UniformInt(0, 2) != 0) out.rows.push_back(r);
      }
      break;
    case 2:
      if (n > 0) {
        const int k = static_cast<int>(rng->UniformInt(0, 40));
        for (int i = 0; i < k; ++i) {
          out.rows.push_back(static_cast<uint32_t>(
              rng->UniformInt(0, static_cast<int64_t>(n) - 1)));
        }
      }
      break;
    default:
      break;  // empty piece
  }
  return out;
}

TEST(GatherEncoderTest, PiecesEncodeLikeTheGatheredBatch) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const Schema schema = PieceSchema();
    const int nbatches = static_cast<int>(rng.UniformInt(0, 6));
    std::vector<ColumnBatch> batches;
    std::vector<PieceRows> rows;
    for (int k = 0; k < nbatches; ++k) {
      const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 70));
      const int null_pct = static_cast<int>(rng.UniformInt(0, 2)) * 30;
      batches.push_back(
          RandomPieceBatch(n, null_pct, rng.UniformInt(0, 4) == 0, &rng));
      rows.push_back(RandomRows(batches.back(), &rng));
    }
    std::vector<WirePiece> pieces;
    ColumnBatch gathered = EmptyBatchOf(schema);
    for (int k = 0; k < nbatches; ++k) {
      const ColumnBatch& b = batches[static_cast<std::size_t>(k)];
      const PieceRows& pr = rows[static_cast<std::size_t>(k)];
      const std::size_t n = pr.dense ? b.physical_rows : pr.rows.size();
      pieces.push_back(
          WirePiece{&b, pr.dense ? nullptr : pr.rows.data(), n});
      for (std::size_t c = 0; c < schema.num_fields(); ++c) {
        if (pr.dense) {
          gathered.columns[c].AppendRangeFrom(b.columns[c], 0, n);
        } else {
          gathered.columns[c].AppendSelected(b.columns[c], pr.rows.data(), n);
        }
      }
      gathered.physical_rows += n;
    }
    const std::string got = SerializePieces(schema, pieces);
    ASSERT_EQ(got, SerializeColumnBatch(gathered)) << "seed " << seed;
    ASSERT_EQ(got, ref::Serialize(ToRowBatch(gathered))) << "seed " << seed;
  }
}

TEST(GatherEncoderTest, SelectionPieceEqualsTheFlattenedBatch) {
  Rng rng(5);
  ColumnBatch b = RandomPieceBatch(300, 30, false, &rng);
  std::vector<uint32_t> sel;
  for (uint32_t r = 0; r < 300; r += 3) sel.push_back(299 - r);
  b.selection = sel;
  const std::string viewed = SerializeColumnBatch(b);
  b.Flatten();
  EXPECT_EQ(viewed, SerializeColumnBatch(b));
}

// ---- Wire source --------------------------------------------------------

TEST(WireSourceTest, MorselsConcatenateToTheFullDecode) {
  uint64_t seed = 100;
  for (const std::size_t rows :
       {0, 1, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 3000}) {
    for (const int null_pct : {0, 25}) {
      Rng rng(++seed);
      const ColumnBatch b =
          RandomPieceBatch(rows, null_pct, rows % 3 == 0, &rng);
      const std::string wire = SerializeColumnBatch(b);
      Result<ColumnBatch> whole = DeserializeColumnBatch(wire);
      ASSERT_TRUE(whole.ok()) << whole.status().ToString();
      for (const std::size_t morsel : {1, 3, 8, 13, 1024}) {
        Result<WirePayload> p = WirePayload::Open(ShuffleBuffer(wire));
        ASSERT_TRUE(p.ok()) << p.status().ToString();
        EXPECT_EQ(p->num_rows(), rows);
        auto src = MakeWireMorselSource(PieceSchema(), {*std::move(p)},
                                        morsel);
        ASSERT_TRUE(src->Open().ok());
        std::vector<ColumnBatch> morsels;
        for (;;) {
          Result<std::optional<ColumnBatch>> m = src->Next();
          ASSERT_TRUE(m.ok()) << m.status().ToString();
          if (!m->has_value()) break;
          ASSERT_LE((*m)->num_rows(), morsel);
          ASSERT_GT((*m)->num_rows(), 0u);
          morsels.push_back(std::move(**m));
        }
        const ColumnBatch cat =
            ConcatBatches(PieceSchema(), std::move(morsels));
        const std::string ctx =
            std::to_string(rows) + " rows, morsel " + std::to_string(morsel);
        ASSERT_EQ(cat.num_rows(), rows) << ctx;
        for (std::size_t c = 0; c < cat.columns.size(); ++c) {
          EXPECT_EQ(cat.columns[c].rep(), whole->columns[c].rep()) << ctx;
          EXPECT_EQ(cat.columns[c].null_count(),
                    whole->columns[c].null_count()) << ctx;
        }
        EXPECT_EQ(SerializeColumnBatch(cat), wire) << ctx;
        EXPECT_EQ(ref::Serialize(ToRowBatch(cat)),
                  ref::Serialize(ToRowBatch(*whole))) << ctx;
      }
    }
  }
}

TEST(WireSourceTest, CompressedFrameDecodesOnceIntoMorsels) {
  Rng rng(3);
  ColumnBatch b = EmptyBatchOf(PieceSchema());
  // Repetitive rows, so the frame compresses.
  for (int r = 0; r < 5000; ++r) {
    b.columns[0].AppendInt64(r % 10);
    b.columns[1].AppendFloat64(1.5);
    b.columns[2].AppendString("shipped by rail");
    b.columns[3].AppendNull();
    b.columns[4].AppendInt64(r % 3);
  }
  b.physical_rows = 5000;
  const std::string wire = SerializeColumnBatch(b);
  const std::string frame = CompressFrame(wire);
  ASSERT_TRUE(IsCompressedFrame(frame));
  ASSERT_LT(frame.size(), wire.size());
  Result<WirePayload> p = WirePayload::Open(ShuffleBuffer(frame));
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  std::vector<ColumnBatch> morsels;
  while (p->rows_left() > 0) morsels.push_back(p->Next(kDefaultMorselRows));
  EXPECT_EQ(morsels.size(), 5u);
  const ColumnBatch cat = ConcatBatches(PieceSchema(), std::move(morsels));
  EXPECT_EQ(SerializeColumnBatch(cat), wire);
}

// ---- Fail-closed sweep ---------------------------------------------------

// A repetitive payload, so its frame compresses.
std::string SweepFramePayload() {
  ColumnBatch rep = EmptyBatchOf(PieceSchema());
  for (int r = 0; r < 300; ++r) {
    rep.columns[0].AppendInt64(r % 4);
    rep.columns[1].AppendFloat64(0.25);
    rep.columns[2].AppendString("air");
    rep.columns[3].AppendNull();
    rep.columns[4].AppendInt64(1);
  }
  rep.physical_rows = 300;
  return SerializeColumnBatch(rep);
}

// Plain payloads, then one compressed frame (the last entry).
std::vector<std::string> SweepPayloads() {
  std::vector<std::string> out;
  Rng rng(77);
  out.push_back(SerializeColumnBatch(RandomPieceBatch(0, 0, false, &rng)));
  out.push_back(SerializeColumnBatch(RandomPieceBatch(11, 30, false, &rng)));
  out.push_back(SerializeColumnBatch(RandomPieceBatch(9, 30, true, &rng)));
  out.push_back(CompressFrame(SweepFramePayload()));
  EXPECT_TRUE(IsCompressedFrame(out.back()));
  return out;
}

TEST(WireFailClosedTest, EverySingleByteFlipIsRejectedAtOpen) {
  const std::vector<std::string> wires = SweepPayloads();
  for (std::size_t w = 0; w < wires.size(); ++w) {
    const std::string& wire = wires[w];
    ASSERT_TRUE(WirePayload::Open(wire).ok());
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (const uint8_t mask : {0x01, 0x80, 0xFF}) {
        std::string bad = wire;
        bad[i] = static_cast<char>(bad[i] ^ mask);
        Result<WirePayload> p = WirePayload::Open(ShuffleBuffer(bad));
        ASSERT_FALSE(p.ok()) << "payload " << w << ": byte " << i << " ^ "
                             << int{mask} << " of " << wire.size()
                             << " accepted";
        EXPECT_EQ(p.status().code(), StatusCode::kIOError)
            << p.status().ToString();
      }
    }
  }
}

TEST(WireFailClosedTest, EveryTruncationIsRejectedAtOpen) {
  for (const std::string& wire : SweepPayloads()) {
    for (std::size_t n = 0; n < wire.size(); ++n) {
      Result<WirePayload> p = WirePayload::Open(wire.substr(0, n));
      ASSERT_FALSE(p.ok()) << n << " of " << wire.size() << " bytes accepted";
      EXPECT_EQ(p.status().code(), StatusCode::kIOError)
          << p.status().ToString();
    }
  }
}

// A damaged payload whose CRC footer is stamped afresh gets past the CRC,
// so the header, bitmap, value and string-length checks alone must
// stand between it and Next, which trusts Open. Each such payload is
// either rejected or decodes, in morsels and whole, inside its bounds
// (the asan/ubsan presets run this suite).
std::string WithFreshCrc(std::string body) {
  const uint32_t crc = Crc32(body);
  body.append(reinterpret_cast<const char*>(&crc), 4);
  return body;
}

void DecodeEverything(const std::string& wire) {
  Result<WirePayload> p = WirePayload::Open(wire);
  if (!p.ok()) {
    EXPECT_EQ(p.status().code(), StatusCode::kIOError);
    return;
  }
  std::size_t rows = 0;
  while (p->rows_left() > 0) rows += p->Next(3).num_rows();
  EXPECT_EQ(rows, p->num_rows());
  Result<ColumnBatch> whole = DeserializeColumnBatch(wire);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->num_rows(), rows);
}

TEST(WireFailClosedTest, DamageUnderAFreshCrcIsRejectedOrDecodesInBounds) {
  std::vector<std::string> wires = SweepPayloads();
  wires.pop_back();  // the frame's own CRC guards its blocks
  for (const std::string& wire : wires) {
    const std::string body = wire.substr(0, wire.size() - 4);
    for (std::size_t i = 4; i < body.size(); ++i) {
      for (const uint8_t mask : {0x01, 0x40, 0x80, 0xFF}) {
        std::string bad = body;
        bad[i] = static_cast<char>(bad[i] ^ mask);
        DecodeEverything(WithFreshCrc(bad));
      }
    }
    for (std::size_t n = 4; n < body.size(); ++n) {
      DecodeEverything(WithFreshCrc(body.substr(0, n)));
    }
  }
}

// ---- Consumer schema -------------------------------------------------------

// A consumer passes the schema it reads to Open: a payload whose header
// carries it decodes into morsels that share that schema, and a
// CRC-valid payload of any other schema (another field count, a renamed
// field, another type tag, plain or in a compressed frame) is IOError
// before any row is decoded.
TEST(WireConsumerSchemaTest, HeaderMustCarryTheConsumersSchema) {
  Rng rng(5);
  const Schema expected = PieceSchema();
  const std::string wire =
      SerializeColumnBatch(RandomPieceBatch(40, 20, false, &rng));
  Result<WirePayload> good = WirePayload::Open(ShuffleBuffer(wire), &expected);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  const ColumnBatch morsel = good->Next(16);
  EXPECT_EQ(morsel.schema.fields().data(), expected.fields().data());
  ASSERT_TRUE(WirePayload::Open(CompressFrame(SweepFramePayload()), &expected)
                  .ok());

  std::vector<Schema> others;
  std::vector<Field> fields = expected.fields();
  fields.pop_back();
  others.push_back(Schema(fields));  // one field fewer
  fields = expected.fields();
  fields.push_back(Field{"extra", DataType::kInt64});
  others.push_back(Schema(fields));  // one field more
  fields = expected.fields();
  fields[1].name += "_renamed";
  others.push_back(Schema(fields));
  fields = expected.fields();
  fields[0].type = fields[0].type == DataType::kString ? DataType::kInt64
                                                       : DataType::kString;
  others.push_back(Schema(fields));
  others.push_back(Schema());
  for (const Schema& other : others) {
    for (const std::string& bytes : {wire, CompressFrame(SweepFramePayload())}) {
      Result<WirePayload> p = WirePayload::Open(ShuffleBuffer(bytes), &other);
      ASSERT_FALSE(p.ok()) << "accepted under " << other.ToString();
      EXPECT_EQ(p.status().code(), StatusCode::kIOError)
          << p.status().ToString();
      // Without a consumer schema the header's own schema is used.
      EXPECT_TRUE(WirePayload::Open(bytes).ok());
    }
  }
}

}  // namespace
}  // namespace swift
