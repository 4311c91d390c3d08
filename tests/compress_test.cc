// Property tests for the in-tree SWZ1 codec (common/compress.h): random
// payloads of every shape the shuffle plane produces must round-trip
// byte-exactly through CompressFrame/DecompressFrame, incompressible
// input must stay within the documented raw-fallback overhead, and
// corrupt frames (truncations, codec-tag flips, length-field lies, bit
// flips) must always fail closed with IOError — never crash, hang, or
// size an allocation from untrusted bytes. Serde integration rides the
// same suite: a framed SerializeBatch payload must decode through
// DeserializeBatch/DeserializeColumnBatch identically to the raw one.

#include "common/compress.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/crc32.h"
#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/serde.h"

namespace swift {
namespace {

// Payload generators covering the byte patterns shuffle buffers carry:
// runs, small-alphabet text, structured records, and pure noise.
std::string RandomPayload(uint64_t seed, std::size_t max_len) {
  Rng rng(seed);
  const std::size_t len =
      static_cast<std::size_t>(rng.UniformInt(0, static_cast<int64_t>(max_len)));
  std::string out(len, '\0');
  switch (rng.UniformInt(0, 3)) {
    case 0:  // compressible: tiny alphabet with long runs
      for (std::size_t i = 0; i < len;) {
        const char c = static_cast<char>('a' + rng.UniformInt(0, 3));
        std::size_t run = static_cast<std::size_t>(rng.UniformInt(1, 64));
        for (; run > 0 && i < len; --run, ++i) out[i] = c;
      }
      break;
    case 1:  // structured: repeating 24-byte records with noise fields
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = (i % 24 < 16) ? static_cast<char>(i % 24)
                               : static_cast<char>(rng.UniformInt(0, 255));
      }
      break;
    case 2:  // incompressible noise
      for (char& c : out) c = static_cast<char>(rng.UniformInt(0, 255));
      break;
    default:  // text-like: words from a small dictionary
      for (std::size_t i = 0; i < len; ++i) {
        static const char kDict[] = "the quick brown fox lineitem orders ";
        out[i] = kDict[(i + static_cast<std::size_t>(rng.UniformInt(0, 5))) %
                       (sizeof(kDict) - 1)];
      }
      break;
  }
  return out;
}

class CompressPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressPropertyTest, FrameRoundTripExact) {
  const std::string src = RandomPayload(GetParam(), 300 * 1024);
  const std::string frame = CompressFrame(src);
  ASSERT_TRUE(IsCompressedFrame(frame));
  EXPECT_LE(frame.size(), CompressFrameBound(src.size()));
  auto raw_len = CompressedFrameRawLength(frame);
  ASSERT_TRUE(raw_len.ok());
  EXPECT_EQ(*raw_len, src.size());
  auto back = DecompressFrame(frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, src);
}

TEST_P(CompressPropertyTest, BlockRoundTripExact) {
  std::string src = RandomPayload(GetParam() ^ 0xB10C, kCompressBlockSize);
  if (src.empty()) src = "x";
  std::string dst(src.size(), '\0');
  const std::size_t n =
      CompressBlock(reinterpret_cast<const uint8_t*>(src.data()), src.size(),
                    reinterpret_cast<uint8_t*>(dst.data()));
  if (n == 0) return;  // did not shrink; frame layer stores it raw
  ASSERT_LT(n, src.size());
  std::string out(src.size(), '\0');
  Status st =
      DecompressBlock(reinterpret_cast<const uint8_t*>(dst.data()), n,
                      reinterpret_cast<uint8_t*>(out.data()), out.size());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out, src);
}

TEST_P(CompressPropertyTest, TruncationAlwaysIOError) {
  const std::string src = RandomPayload(GetParam() ^ 0x7A11, 64 * 1024);
  const std::string frame = CompressFrame(src);
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t cut = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(frame.size()) - 1));
    auto result = DecompressFrame(frame.substr(0, cut));
    ASSERT_FALSE(result.ok()) << "cut at " << cut << " of " << frame.size();
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST_P(CompressPropertyTest, BitFlipAlwaysIOErrorOrIdentical) {
  const std::string src = RandomPayload(GetParam() ^ 0xF11b, 64 * 1024);
  const std::string frame = CompressFrame(src);
  Rng rng(GetParam() ^ 0xD00F);
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupt = frame;
    const std::size_t pos = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(frame.size()) - 1));
    corrupt[pos] =
        static_cast<char>(corrupt[pos] ^ (1u << rng.UniformInt(0, 7)));
    auto result = DecompressFrame(corrupt);
    // A flip inside the magic demotes the buffer to "not a frame"; every
    // flip that leaves the magic intact must be caught by the header
    // validation or the CRC gate.
    if (result.ok()) {
      EXPECT_FALSE(IsCompressedFrame(corrupt)) << "flip at " << pos;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kIOError);
    }
  }
}

TEST_P(CompressPropertyTest, LengthFieldLiesAreRejectedCheaply) {
  const std::string src = RandomPayload(GetParam() ^ 0x11E5, 32 * 1024);
  std::string frame = CompressFrame(src);
  Rng rng(GetParam() ^ 0x5151);
  for (int trial = 0; trial < 16; ++trial) {
    std::string corrupt = frame;
    // Overwrite raw_len (bytes 5..12) with a hostile value, up to 2^63.
    uint64_t lie = rng.Next() >> static_cast<unsigned>(rng.UniformInt(0, 1));
    std::memcpy(&corrupt[5], &lie, sizeof(lie));
    auto result = DecompressFrame(corrupt);
    if (lie == src.size()) continue;  // accidentally honest
    // Either the block-count bound rejects the header outright, or the
    // CRC gate fires (the CRC does not cover the header, so a frame
    // whose body still checksums must then fail block accounting).
    ASSERT_FALSE(result.ok()) << "lie " << lie;
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST_P(CompressPropertyTest, CodecTagFlipsAlwaysIOError) {
  const std::string src = RandomPayload(GetParam() ^ 0xC0DE, 16 * 1024);
  std::string frame = CompressFrame(src);
  for (int tag = 0; tag < 256; tag += 17) {  // every tag but SWZ1's 1
    std::string corrupt = frame;
    corrupt[4] = static_cast<char>(tag);
    auto result = DecompressFrame(corrupt);
    ASSERT_FALSE(result.ok()) << "tag " << tag;
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST_P(CompressPropertyTest, RandomGarbageNeverCrashes) {
  Rng rng(GetParam() ^ 0x6A4BA6E);
  for (int trial = 0; trial < 24; ++trial) {
    std::string garbage(static_cast<std::size_t>(rng.UniformInt(0, 4096)),
                        '\0');
    for (char& ch : garbage) ch = static_cast<char>(rng.UniformInt(0, 255));
    if (trial % 2 == 0 && garbage.size() >= 4) {
      // Bias onto the real decode path: valid magic, hostile remainder.
      std::memcpy(garbage.data(), "SWZ1", 4);
    }
    auto result = DecompressFrame(garbage);  // must not crash or OOM
    (void)result;
    (void)IsCompressedFrame(garbage);
    (void)CompressedFrameRawLength(garbage);
    (void)CompressedFrameCrc(garbage);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(CompressTest, EmptyInput) {
  const std::string frame = CompressFrame("");
  ASSERT_TRUE(IsCompressedFrame(frame));
  EXPECT_EQ(frame.size(), kCompressFrameHeaderBytes);
  auto back = DecompressFrame(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(CompressTest, IncompressibleOverheadWithinBound) {
  Rng rng(99);
  std::string noise(1 << 20, '\0');
  for (char& c : noise) c = static_cast<char>(rng.UniformInt(0, 255));
  const std::string frame = CompressFrame(noise);
  // Raw fallback: header + one u32 word per 64-KiB block, <= 0.4%
  // beyond a few KiB (ISSUE acceptance bound; actual is ~0.008%).
  const double overhead =
      static_cast<double>(frame.size()) - static_cast<double>(noise.size());
  EXPECT_LE(overhead / static_cast<double>(noise.size()), 0.004);
  auto back = DecompressFrame(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, noise);
}

TEST(CompressTest, CompressiblePayloadShrinksAndCrcMatches) {
  std::string text;
  for (int i = 0; i < 4000; ++i) text += "lineitem|1995-03-15|AIR|truck|";
  const std::string frame = CompressFrame(text);
  EXPECT_LT(frame.size(), text.size() / 4);
  auto declared = CompressedFrameCrc(frame);
  ASSERT_TRUE(declared.ok());
  EXPECT_EQ(*declared,
            Crc32(std::string_view(frame).substr(kCompressFrameHeaderBytes)));
}

TEST(CompressTest, CrossesBlockBoundaries) {
  // > 3 blocks with a match pattern that repeats across the 64-KiB cuts;
  // blocks are independent, so the decode must reassemble seamlessly.
  std::string src;
  for (std::size_t i = 0; src.size() < 3 * kCompressBlockSize + 777; ++i) {
    src += "block boundary pattern " + std::to_string(i % 100) + ";";
  }
  const std::string frame = CompressFrame(src);
  EXPECT_LT(frame.size(), src.size());
  auto back = DecompressFrame(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, src);
}

// Serde values that have bitten codecs before: NaN and -0.0 payloads,
// empty and multi-KB strings, all column types — the frame must hand
// DeserializeBatch the exact bytes it framed.
Batch EdgeCaseBatch() {
  Batch b;
  b.schema = Schema({Field{"i", DataType::kInt64},
                     Field{"f", DataType::kFloat64},
                     Field{"s", DataType::kString}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  b.rows.push_back({Value(int64_t{0}), Value(-0.0), Value(std::string())});
  b.rows.push_back({Value(std::numeric_limits<int64_t>::min()), Value(nan),
                    Value(std::string(8 * 1024, 'q'))});
  b.rows.push_back({Value(std::numeric_limits<int64_t>::max()),
                    Value(std::numeric_limits<double>::infinity()),
                    Value(std::string("\0with\0nuls", 10))});
  b.rows.push_back({Value::Null(), Value::Null(), Value::Null()});
  for (int i = 0; i < 500; ++i) {
    b.rows.push_back({Value(int64_t{i} << 32), Value(i * 0.125),
                      Value("row-" + std::to_string(i % 7))});
  }
  return b;
}

TEST(CompressSerdeTest, FramedBatchDecodesIdentically) {
  const Batch b = EdgeCaseBatch();
  const std::string wire = SerializeBatch(b);
  const std::string frame = CompressFrame(wire);
  ASSERT_TRUE(IsCompressedFrame(frame));

  auto direct = DeserializeBatch(wire);
  auto framed = DeserializeBatch(frame);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(framed.ok()) << framed.status().ToString();
  // Byte-identity is the strongest equality serde offers.
  EXPECT_EQ(SerializeBatch(*framed), SerializeBatch(*direct));

  auto col_direct = DeserializeColumnBatch(wire);
  auto col_framed = DeserializeColumnBatch(frame);
  ASSERT_TRUE(col_direct.ok());
  ASSERT_TRUE(col_framed.ok()) << col_framed.status().ToString();
  EXPECT_EQ(SerializeColumnBatch(*col_framed),
            SerializeColumnBatch(*col_direct));
}

TEST(CompressSerdeTest, NestedFrameRejected) {
  const std::string wire = SerializeBatch(EdgeCaseBatch());
  const std::string once = CompressFrame(wire);
  const std::string twice = CompressFrame(once);
  auto result = DeserializeBatch(twice);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(CompressSerdeTest, CorruptFrameFailsClosedThroughSerde) {
  const std::string wire = SerializeBatch(EdgeCaseBatch());
  std::string frame = CompressFrame(wire);
  frame[4] ^= 0x7F;  // the fault injector's frame mangle
  auto result = DeserializeBatch(frame);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace swift
