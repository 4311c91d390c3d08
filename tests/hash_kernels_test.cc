// Unit tests for the vectorized hash kernels: the shared 64-bit mixer,
// the normalized batch KeyEncoder (checked against the value-at-a-time
// reference encoder in reference_ops.h over every column rep), the flat
// swiss-style FlatKeyTable, and the HashPartition skew fix
// (sequential/strided int64 keys must spread within +/-20% of uniform).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/hash64.h"
#include "common/macros.h"
#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/hash_table.h"
#include "exec/key_encoder.h"
#include "exec/operators.h"
#include "partition_gather.h"
#include "reference_ops.h"

namespace swift {
namespace {

// A one-row batch holding `key`, each column typed after its value (a
// NULL makes a kNull column), encoded over all of its columns.
KeyEncoder::BatchKeys EncodeKeyRow(const Row& key) {
  Batch b;
  std::vector<Field> fields;
  for (std::size_t c = 0; c < key.size(); ++c) {
    fields.push_back({"c" + std::to_string(c), key[c].type()});
  }
  b.schema = Schema(fields);
  b.rows = {key};
  KeyEncoder::BatchKeys out;
  Result<ColumnBatch> cb = ToColumnBatch(b);
  EXPECT_TRUE(cb.ok()) << cb.status().ToString();
  if (!cb.ok()) return out;
  std::vector<const ColumnVector*> cols;
  for (const ColumnVector& c : cb->columns) cols.push_back(&c);
  EXPECT_TRUE(KeyEncoder::EncodeColumns(cols, nullptr, 1, &out));
  return out;
}

std::string EncodeRow(const Row& key) {
  const KeyEncoder::BatchKeys bk = EncodeKeyRow(key);
  return bk.size() == 1 ? std::string(bk.key(0)) : std::string();
}

std::string EncodeOne(const Value& v) { return EncodeRow({v}); }

std::string Hex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto b = static_cast<uint8_t>(ch);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// ---- Hash64 / Mix64 / RangeReduce -----------------------------------

TEST(Hash64Test, DeterministicAndLengthSensitive) {
  const std::string a = "hello world";
  EXPECT_EQ(Hash64(a), Hash64(a));
  EXPECT_NE(Hash64(std::string_view("hello world")),
            Hash64(std::string_view("hello worl")));
  EXPECT_NE(Hash64(std::string_view("")), Hash64(std::string_view("\0", 1)));
}

TEST(Hash64Test, EveryLengthUpTo128Hashable) {
  std::string s;
  std::set<uint64_t> seen;
  for (int len = 0; len <= 128; ++len) {
    seen.insert(Hash64(s));
    s.push_back(static_cast<char>('a' + len % 26));
  }
  // All prefixes hash distinctly (a collision here would be astonishing).
  EXPECT_EQ(seen.size(), 129u);
}

TEST(Hash64Test, SeedChangesHash) {
  const std::string s = "key";
  EXPECT_NE(Hash64(s.data(), s.size(), 1), Hash64(s.data(), s.size(), 2));
}

TEST(Hash64Test, Mix64DecorrelatesSequentialInputs) {
  // Low bits of the mix must not be sequential (std::hash<int64_t> is
  // the identity, the root cause of the HashPartition stripes).
  std::set<uint64_t> low;
  for (uint64_t i = 0; i < 64; ++i) low.insert(Mix64(i) & 0xff);
  EXPECT_GT(low.size(), 40u);  // identity mapping would give exactly 64 in order
  EXPECT_NE(Mix64(0), 0u);
  EXPECT_NE(Mix64(1), Mix64(0) + 1);
}

TEST(Hash64Test, RangeReduceCoversAllBucketsUniformly) {
  const uint32_t n = 7;
  std::vector<int> counts(n, 0);
  const int kKeys = 70000;
  for (int i = 0; i < kKeys; ++i) {
    ++counts[RangeReduce(Mix64(static_cast<uint64_t>(i)), n)];
  }
  const double expect = static_cast<double>(kKeys) / n;
  for (uint32_t p = 0; p < n; ++p) {
    EXPECT_NEAR(counts[p], expect, 0.2 * expect) << "partition " << p;
  }
}

// ---- KeyEncoder ------------------------------------------------------

TEST(KeyEncoderTest, CrossNumericTypeEqualityNormalizes) {
  // The Compare()==0 => equal-encoding contract of exec/value.cc.
  EXPECT_EQ(EncodeOne(Value(int64_t{3})), EncodeOne(Value(3.0)));
  EXPECT_EQ(EncodeOne(Value(int64_t{0})), EncodeOne(Value(-0.0)));
  EXPECT_EQ(EncodeOne(Value(int64_t{-7})), EncodeOne(Value(-7.0)));
  EXPECT_NE(EncodeOne(Value(3.5)), EncodeOne(Value(int64_t{3})));
  EXPECT_NE(EncodeOne(Value(3.5)), EncodeOne(Value(int64_t{4})));
  // Non-integral and huge doubles stay float-tagged.
  EXPECT_NE(EncodeOne(Value(1e300)), EncodeOne(Value(int64_t{0})));
  // NaN bit patterns canonicalize (NaN groups with NaN).
  const double qnan = std::nan("");
  const double other_nan = std::nan("0x123");
  EXPECT_EQ(EncodeOne(Value(qnan)), EncodeOne(Value(other_nan)));
}

TEST(KeyEncoderTest, EncodingMatchesValueEquality) {
  const std::vector<Value> vals = {
      Value::Null(),        Value(int64_t{0}),  Value(int64_t{3}),
      Value(int64_t{-3}),   Value(3.0),         Value(-0.0),
      Value(3.5),           Value(-3.0),        Value(""),
      Value("a"),           Value("ab"),        Value("3"),
      Value(int64_t{1} << 40), Value(1099511627776.0) /* 2^40 */};
  for (const Value& a : vals) {
    for (const Value& b : vals) {
      const bool val_eq = !a.is_null() && !b.is_null() && a.Compare(b) == 0;
      const bool enc_eq = EncodeOne(a) == EncodeOne(b);
      if (a.is_null() || b.is_null()) {
        EXPECT_EQ(enc_eq, a.is_null() && b.is_null());
      } else {
        EXPECT_EQ(val_eq, enc_eq)
            << a.ToString() << " vs " << b.ToString();
      }
      // Equal Compare implies equal Hash via the encoder too.
      if (val_eq) {
        EXPECT_EQ(KeyEncoder::HashEncoded(EncodeOne(a)),
                  KeyEncoder::HashEncoded(EncodeOne(b)));
      }
    }
  }
}

TEST(KeyEncoderTest, MultiColumnFramingIsInjective) {
  // Length prefixes keep column boundaries unambiguous.
  EXPECT_NE(EncodeRow({Value("ab"), Value("c")}),
            EncodeRow({Value("a"), Value("bc")}));
  EXPECT_NE(EncodeRow({Value("a"), Value::Null()}), EncodeRow({Value("a")}));
  EXPECT_NE(EncodeRow({Value::Null()}), EncodeRow({}));
  EXPECT_NE(EncodeRow({Value::Null(), Value::Null()}),
            EncodeRow({Value::Null()}));
  // A string whose bytes mimic an int64 encoding cannot collide with it
  // (different tag byte).
  std::string fake(8, '\0');
  EXPECT_NE(EncodeRow({Value(fake)}), EncodeRow({Value(int64_t{0})}));
}

TEST(KeyEncoderTest, NullPrefixByteSetsHasNull) {
  EXPECT_EQ(EncodeKeyRow({Value(int64_t{1}), Value::Null()}).null_key,
            std::vector<uint8_t>{1});
  EXPECT_EQ(EncodeKeyRow({Value(int64_t{1}), Value("x")}).null_key,
            std::vector<uint8_t>{0});
  EXPECT_EQ(EncodeKeyRow({}).null_key, std::vector<uint8_t>{0});
}

TEST(KeyEncoderTest, DecodeRoundTripsNormalizedValues) {
  const Row key = {Value::Null(), Value(int64_t{-42}), Value(2.5),
                   Value("hello"), Value("")};
  auto decoded = ref::Decode(EncodeRow(key));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), key.size());
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (key[i].is_null()) {
      EXPECT_TRUE((*decoded)[i].is_null());
    } else {
      EXPECT_EQ(key[i].Compare((*decoded)[i]), 0);
    }
  }
  // Integral floats come back in normalized (int64) form.
  auto norm = ref::Decode(EncodeRow({Value(3.0)}));
  ASSERT_TRUE(norm.ok());
  ASSERT_TRUE((*norm)[0].is_int64());
  EXPECT_EQ((*norm)[0].int64(), 3);
}

TEST(KeyEncoderTest, DecodeRejectsTruncatedInput) {
  const std::string enc = EncodeRow({Value(int64_t{7}), Value("abc")});
  for (std::size_t cut = 1; cut < enc.size(); ++cut) {
    auto r = ref::Decode(std::string_view(enc).substr(0, cut));
    // Cuts at column boundaries still decode (fewer columns); any cut
    // inside a column must error, never crash or mis-read.
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsInvalidArgument());
    }
  }
  EXPECT_FALSE(ref::Decode(std::string_view("\x09", 1)).ok());
}

// The key bytes are the hash-partition and join-table contract: a
// change to them re-routes every shuffled row, so it must be on purpose.
TEST(KeyEncoderTest, BatchKeyBytesArePinned) {
  ColumnVector ints = ColumnVector::OfType(DataType::kInt64);
  ints.Append(Value(int64_t{1}));
  ints.Append(Value::Null());
  ColumnVector strs = ColumnVector::OfType(DataType::kString);
  strs.Append(Value("ab"));
  strs.Append(Value(""));
  ColumnVector floats = ColumnVector::OfType(DataType::kFloat64);
  floats.Append(Value(2.5));
  floats.Append(Value(3.0));
  ColumnVector negs = ColumnVector::OfType(DataType::kInt64);
  negs.AppendNull();
  negs.Append(Value(int64_t{-2}));
  ASSERT_EQ(negs.rep(), ColumnRep::kInt64);
  KeyEncoder::BatchKeys bk;
  ASSERT_TRUE(KeyEncoder::EncodeColumns({&ints, &strs, &floats, &negs},
                                        nullptr, 2, &bk));
  ASSERT_EQ(bk.size(), 2u);
  // int 1 | "ab" | 2.5 | NULL
  EXPECT_EQ(Hex(bk.key(0)),
            "010100000000000000"
            "03020000006162"
            "020000000000000440"
            "00");
  // NULL | "" | 3.0 (as int64 3) | int -2
  EXPECT_EQ(Hex(bk.key(1)),
            "00"
            "0300000000"
            "010300000000000000"
            "01feffffffffffffff");
  EXPECT_EQ(bk.null_key, (std::vector<uint8_t>{1, 1}));
}

// One key column holding the same values as kInt64 and as kFloat64
// encodes to the same bytes and hashes to the same partition: two
// producers whose batches carry different reps must agree.
TEST(KeyEncoderTest, CrossRepKeysEncodeAndHashAlike) {
  const std::vector<int64_t> vals = {3, -7, 0, int64_t{1} << 40, 12345};
  ColumnVector as_int = ColumnVector::OfType(DataType::kInt64);
  ColumnVector as_float = ColumnVector::OfType(DataType::kFloat64);
  for (const int64_t v : vals) {
    as_int.Append(Value(v));
    // -0.0 stands in for 0: it must normalize like +0.
    as_float.Append(Value(v == 0 ? -0.0 : static_cast<double>(v)));
  }
  as_int.AppendNull();
  as_float.AppendNull();
  ASSERT_EQ(as_float.rep(), ColumnRep::kFloat64);
  std::vector<KeyEncoder::BatchKeys> keys;
  std::vector<std::vector<uint64_t>> hashes;
  for (const ColumnVector* col : {&as_int, &as_float}) {
    KeyEncoder::BatchKeys bk;
    ASSERT_TRUE(KeyEncoder::EncodeColumns({col}, nullptr, col->size(), &bk));
    std::vector<uint64_t> h;
    std::vector<uint8_t> has_null;
    KeyEncoder::HashColumns({col}, nullptr, col->size(), &h, &has_null);
    EXPECT_EQ(has_null.back(), 1);
    keys.push_back(std::move(bk));
    hashes.push_back(std::move(h));
  }
  for (std::size_t r = 1; r < keys.size(); ++r) {
    EXPECT_EQ(keys[r].bytes, keys[0].bytes) << "rep " << r;
    EXPECT_EQ(keys[r].hashes, keys[0].hashes) << "rep " << r;
    EXPECT_EQ(hashes[r], hashes[0]) << "rep " << r;
  }
}

// ---- Batch encoder vs the value-at-a-time reference ------------------

double RandomDouble(Rng* rng) {
  switch (rng->UniformInt(0, 5)) {
    case 0:
      return -0.0;
    case 1: {  // a NaN with a random payload
      uint64_t bits = 0x7ff0000000000000ULL |
                      static_cast<uint64_t>(rng->UniformInt(1, 1 << 20));
      if (rng->Bernoulli(0.5)) bits |= 0x8000000000000000ULL;
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return d;
    }
    case 2:  // integral: collides with the int64 keys
      return static_cast<double>(rng->UniformInt(-3, 3));
    case 3:
      return rng->Bernoulli(0.5) ? 1e300 : 9223372036854775808.0;  // 2^63
    default:
      return rng->Uniform(-4.0, 4.0);
  }
}

const char* const kKeyStrings[] = {"", "a", "ab", "\xc3\xa9", "3"};

// A column of `n` cells in a random rep: kNull, or a typed rep holding
// NULLs (none, in a third of the columns) and its own type only.
ColumnVector RandomKeyColumn(Rng* rng, std::size_t n) {
  const auto rep = static_cast<ColumnRep>(rng->UniformInt(0, 3));
  if (rep == ColumnRep::kNull) return ColumnVector::MakeNull(n);
  ColumnVector col = ColumnVector::OfRep(rep);
  const double null_rate = rng->Bernoulli(1.0 / 3) ? 0.0 : 0.2;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(null_rate)) {
      col.Append(Value::Null());
      continue;
    }
    switch (rep) {
      case ColumnRep::kInt64:
        col.Append(Value(rng->UniformInt(-3, 3)));
        break;
      case ColumnRep::kFloat64:
        col.Append(Value(RandomDouble(rng)));
        break;
      default:
        col.Append(Value(kKeyStrings[rng->UniformInt(0, 4)]));
        break;
    }
  }
  return col;
}

class BatchKeyEncoderPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchKeyEncoderPropertyTest, MatchesReferenceEncoder) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(0, 24));
    ColumnBatch cb;
    cb.physical_rows = n;
    const int width = static_cast<int>(rng.UniformInt(1, 4));
    for (int c = 0; c < width; ++c) {
      cb.columns.push_back(RandomKeyColumn(&rng, n));
    }
    if (n > 0 && rng.Bernoulli(0.5)) {
      std::vector<uint32_t> sel;
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.6)) sel.push_back(static_cast<uint32_t>(i));
      }
      cb.selection = std::move(sel);
    }
    std::vector<uint32_t> cols;  // zero to four keys, repeats allowed
    const int num_keys = static_cast<int>(rng.UniformInt(0, 4));
    for (int k = 0; k < num_keys; ++k) {
      cols.push_back(static_cast<uint32_t>(rng.UniformInt(0, width - 1)));
    }
    std::vector<const ColumnVector*> keys;
    for (const uint32_t c : cols) keys.push_back(&cb.columns[c]);
    const uint32_t* sel = cb.selection ? cb.selection->data() : nullptr;
    KeyEncoder::BatchKeys bk;
    ASSERT_TRUE(KeyEncoder::EncodeColumns(keys, sel, cb.num_rows(), &bk));
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> has_null;
    KeyEncoder::HashColumns(keys, sel, cb.num_rows(), &hashes, &has_null);
    ASSERT_EQ(bk.size(), cb.num_rows());
    ASSERT_EQ(hashes.size(), cb.num_rows());
    for (std::size_t i = 0; i < cb.num_rows(); ++i) {
      Row key;
      bool any_null = false;
      for (const uint32_t c : cols) {
        key.push_back(cb.columns[c].GetValue(cb.PhysicalIndex(i)));
        any_null = any_null || key.back().is_null();
      }
      const std::string want = ref::EncodeKey(key);
      ASSERT_EQ(Hex(bk.key(i)), Hex(want)) << "row " << i;
      EXPECT_EQ(bk.hashes[i], KeyEncoder::HashEncoded(want));
      EXPECT_EQ(bk.null_key[i], any_null ? 1 : 0);
      EXPECT_EQ(hashes[i], ref::HashKey(key)) << "row " << i;
      EXPECT_EQ(has_null[i], any_null ? 1 : 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchKeyEncoderPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---- FlatKeyTable ----------------------------------------------------

TEST(FlatKeyTableTest, InsertFindAndDenseOrder) {
  FlatKeyTable t;
  const std::vector<std::string> keys = {"alpha", "beta", "gamma", ""};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto r = t.FindOrInsert(keys[i], Hash64(keys[i]));
    EXPECT_TRUE(r.inserted);
    EXPECT_EQ(r.index, i);  // dense ids in insertion order
  }
  EXPECT_EQ(t.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(t.Find(keys[i], Hash64(keys[i])), static_cast<int64_t>(i));
    EXPECT_EQ(t.key(static_cast<uint32_t>(i)), keys[i]);
    const auto r = t.FindOrInsert(keys[i], Hash64(keys[i]));
    EXPECT_FALSE(r.inserted);
    EXPECT_EQ(r.index, i);
  }
  EXPECT_EQ(t.Find("delta", Hash64(std::string_view("delta"))), -1);
}

TEST(FlatKeyTableTest, GrowthPreservesEveryKey) {
  FlatKeyTable t;  // starts at capacity 16: forces many doublings
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const std::string k = "key-" + std::to_string(i);
    const auto r = t.FindOrInsert(k, Hash64(k));
    ASSERT_TRUE(r.inserted) << i;
    ASSERT_EQ(r.index, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(t.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::string k = "key-" + std::to_string(i);
    ASSERT_EQ(t.Find(k, Hash64(k)), i);
  }
}

TEST(FlatKeyTableTest, PreSizedTableDoesNotGrowUnderExpectedLoad) {
  FlatKeyTable t(10000);
  for (int i = 0; i < 10000; ++i) {
    const std::string k = std::to_string(i);
    t.FindOrInsert(k, Hash64(k));
  }
  EXPECT_EQ(t.size(), 10000u);
  for (int i = 0; i < 10000; ++i) {
    const std::string k = std::to_string(i);
    ASSERT_EQ(t.Find(k, Hash64(k)), i);
  }
}

TEST(FlatKeyTableTest, AdversarialSharedPrefixKeys) {
  // Long keys differing only in the last byte: tag-byte probing must
  // fall through to full memcmp and still distinguish them.
  FlatKeyTable t;
  const std::string prefix(512, 'x');
  for (int i = 0; i < 300; ++i) {
    const std::string k = prefix + static_cast<char>(i % 256) +
                          std::to_string(i / 256);
    const auto r = t.FindOrInsert(k, Hash64(k));
    ASSERT_TRUE(r.inserted);
  }
  EXPECT_EQ(t.size(), 300u);
}

TEST(FlatKeyTableTest, CollidingHashesDisambiguateByKeyBytes) {
  // Same (forged) hash for every key: linear probing + memcmp must keep
  // all entries distinct and findable.
  FlatKeyTable t;
  const uint64_t forged = 0x1234567812345678ULL;
  for (int i = 0; i < 64; ++i) {
    const std::string k = "k" + std::to_string(i);
    const auto r = t.FindOrInsert(k, forged);
    ASSERT_TRUE(r.inserted) << i;
  }
  for (int i = 0; i < 64; ++i) {
    const std::string k = "k" + std::to_string(i);
    ASSERT_EQ(t.Find(k, forged), i);
  }
  EXPECT_EQ(t.Find("k64", forged), -1);
}

// ---- KeyArena --------------------------------------------------------

TEST(KeyArenaTest, StoredViewsStayValidAcrossChunkGrowth) {
  KeyArena arena;
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 2000; ++i) {
    originals.push_back(std::string(100, static_cast<char>('a' + i % 26)) +
                        std::to_string(i));
  }
  for (const std::string& s : originals) views.push_back(arena.Store(s));
  for (std::size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(views[i], originals[i]) << i;
  }
  // An oversized store gets its own chunk.
  const std::string big(1 << 20, 'z');
  EXPECT_EQ(arena.Store(big), big);
}

// ---- HashPartition skew ---------------------------------------------

// GatherPartitions over a row batch, boxed back into rows.
Result<std::vector<Batch>> PartitionRows(const Batch& batch,
                                         const std::vector<ExprPtr>& keys,
                                         int num_partitions,
                                         bool with_selection = false) {
  SWIFT_ASSIGN_OR_RETURN(ColumnBatch cb, ToColumnBatch(batch));
  if (with_selection) {
    std::vector<uint32_t> all(cb.physical_rows);
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<uint32_t>(i);
    }
    cb.selection = std::move(all);
  }
  SWIFT_ASSIGN_OR_RETURN(std::vector<ColumnBatch> parts,
                         GatherPartitions(cb, keys, num_partitions));
  std::vector<Batch> out;
  for (const ColumnBatch& p : parts) out.push_back(ToRowBatch(p));
  return out;
}

Batch IntKeyBatch(const std::vector<int64_t>& keys) {
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64}});
  b.rows.reserve(keys.size());
  for (int64_t k : keys) b.rows.push_back({Value(k)});
  return b;
}

void ExpectUniformSpread(const Batch& batch, int num_partitions) {
  const std::vector<ExprPtr> keys = {Expr::Column("k")};
  auto parts = PartitionRows(batch, keys, num_partitions);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), static_cast<std::size_t>(num_partitions));
  std::size_t total = 0;
  const double expect =
      static_cast<double>(batch.rows.size()) / num_partitions;
  for (int p = 0; p < num_partitions; ++p) {
    total += (*parts)[p].rows.size();
    EXPECT_NEAR((*parts)[p].rows.size(), expect, 0.2 * expect)
        << "partition " << p << " of " << num_partitions;
  }
  EXPECT_EQ(total, batch.rows.size());
}

TEST(HashPartitionSkewTest, SequentialKeysSpreadUniformly) {
  std::vector<int64_t> keys(7 * 16 * 100);  // 11200 keys
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i);
  }
  const Batch b = IntKeyBatch(keys);
  ExpectUniformSpread(b, 7);
  ExpectUniformSpread(b, 16);
}

TEST(HashPartitionSkewTest, StridedKeysSpreadUniformly) {
  // Strides that divide the partition count are the classic stripe
  // pathology: identity-hash-mod-n sends every key to one partition.
  for (const int64_t stride : {7, 16, 1024}) {
    std::vector<int64_t> keys(11200);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<int64_t>(i) * stride;
    }
    const Batch b = IntKeyBatch(keys);
    ExpectUniformSpread(b, 7);
    ExpectUniformSpread(b, 16);
  }
}

TEST(HashPartitionSkewTest, OverloadsAgreeAndNullsGoToPartitionZero) {
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64}, {"v", DataType::kString}});
  for (int i = 0; i < 500; ++i) {
    b.rows.push_back({i % 10 == 0 ? Value::Null()
                                  : Value(static_cast<int64_t>(i * 16)),
                      Value("v" + std::to_string(i))});
  }
  const std::vector<ExprPtr> keys = {Expr::Column("k")};
  // A dense batch and the same rows under an identity selection vector
  // are partitioned identically.
  auto borrowed = PartitionRows(b, keys, 7);
  ASSERT_TRUE(borrowed.ok());
  auto owned = PartitionRows(b, keys, 7, /*with_selection=*/true);
  ASSERT_TRUE(owned.ok());
  for (int p = 0; p < 7; ++p) {
    ASSERT_EQ((*borrowed)[p].rows.size(), (*owned)[p].rows.size()) << p;
    for (std::size_t i = 0; i < (*borrowed)[p].rows.size(); ++i) {
      const Row& a = (*borrowed)[p].rows[i];
      const Row& c = (*owned)[p].rows[i];
      ASSERT_EQ(a.size(), c.size());
      for (std::size_t j = 0; j < a.size(); ++j) {
        if (a[j].is_null()) {
          ASSERT_TRUE(c[j].is_null());
        } else {
          ASSERT_EQ(a[j].Compare(c[j]), 0);
        }
      }
    }
  }
  // Every NULL-keyed row landed in partition 0.
  std::size_t nulls_in_p0 = 0;
  for (const Row& r : (*borrowed)[0].rows) {
    if (r[0].is_null()) ++nulls_in_p0;
  }
  EXPECT_EQ(nulls_in_p0, 50u);
  for (int p = 1; p < 7; ++p) {
    for (const Row& r : (*borrowed)[p].rows) {
      EXPECT_FALSE(r[0].is_null());
    }
  }
}

}  // namespace
}  // namespace swift
