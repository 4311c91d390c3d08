// Unit tests for the vectorized hash kernels: the shared 64-bit mixer,
// the normalized KeyEncoder, the flat swiss-style FlatKeyTable, and the
// HashPartition skew fix (sequential/strided int64 keys must spread
// within +/-20% of uniform, where the old identity-hash `HashRow % n`
// striped).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/hash64.h"
#include "common/macros.h"
#include "exec/hash_table.h"
#include "exec/key_encoder.h"
#include "exec/operators.h"

namespace swift {
namespace {

std::string EncodeOne(const Value& v) {
  std::string out;
  KeyEncoder::AppendValue(v, &out);
  return out;
}

std::string EncodeRow(const Row& key) {
  KeyEncoder enc;
  bool has_null = false;
  return std::string(enc.Encode(key, &has_null));
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
  KeyEncoder enc;
  bool has_null = false;
  (void)enc.Encode({Value(int64_t{1}), Value::Null()}, &has_null);
  EXPECT_TRUE(has_null);
  (void)enc.Encode({Value(int64_t{1}), Value("x")}, &has_null);
  EXPECT_FALSE(has_null);
  (void)enc.Encode({}, &has_null);
  EXPECT_FALSE(has_null);
}

TEST(KeyEncoderTest, DecodeRoundTripsNormalizedValues) {
  const Row key = {Value::Null(), Value(int64_t{-42}), Value(2.5),
                   Value("hello"), Value("")};
  auto decoded = KeyEncoder::Decode(EncodeRow(key));
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
  auto norm = KeyEncoder::Decode(EncodeRow({Value(3.0)}));
  ASSERT_TRUE(norm.ok());
  ASSERT_TRUE((*norm)[0].is_int64());
  EXPECT_EQ((*norm)[0].int64(), 3);
}

TEST(KeyEncoderTest, DecodeRejectsTruncatedInput) {
  const std::string enc = EncodeRow({Value(int64_t{7}), Value("abc")});
  for (std::size_t cut = 1; cut < enc.size(); ++cut) {
    auto r = KeyEncoder::Decode(std::string_view(enc).substr(0, cut));
    // Cuts at column boundaries still decode (fewer columns); any cut
    // inside a column must error, never crash or mis-read.
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsInvalidArgument());
    }
  }
  EXPECT_FALSE(KeyEncoder::Decode(std::string_view("\x09", 1)).ok());
}

// The column fast path (EncodeColumns / HashColumns) must be
// byte-for-byte / bit-for-bit the same function as evaluating the key
// row and calling Encode / HashNormalized.
TEST(KeyEncoderTest, ColumnFastPathMatchesEvaluatedPath) {
  const Row row = {Value(int64_t{42}), Value("abc"), Value::Null(),
                   Value(3.5),         Value(3.0),   Value(int64_t{-1})};
  const std::vector<std::vector<uint32_t>> picks = {
      {0}, {3}, {2}, {0, 5}, {1, 2, 4}, {5, 0}, {}};
  for (const auto& cols : picks) {
    Row key;
    for (const uint32_t c : cols) key.push_back(row[c]);

    KeyEncoder ref;
    bool ref_null = false;
    const std::string expect(ref.Encode(key, &ref_null));

    KeyEncoder enc;
    bool has_null = true;
    std::string_view got;
    ASSERT_TRUE(enc.EncodeColumns(row, cols, &got, &has_null));
    EXPECT_EQ(std::string(got), expect);
    EXPECT_EQ(has_null, ref_null);

    bool hn_null = false;
    const uint64_t expect_hash = KeyEncoder::HashNormalized(key, &hn_null);
    uint64_t hash = 0;
    bool hc_null = true;
    ASSERT_TRUE(KeyEncoder::HashColumns(row, cols, &hash, &hc_null));
    EXPECT_EQ(hash, expect_hash);
    EXPECT_EQ(hc_null, hn_null);
  }
}

TEST(KeyEncoderTest, ColumnFastPathRejectsNarrowRows) {
  const Row row = {Value(int64_t{1}), Value("s")};
  KeyEncoder enc;
  std::string_view out;
  uint64_t h = 0;
  bool has_null = false;
  EXPECT_FALSE(enc.EncodeColumns(row, {2}, &out, &has_null));
  EXPECT_FALSE(enc.EncodeColumns(row, {0, 7}, &out, &has_null));
  EXPECT_FALSE(KeyEncoder::HashColumns(row, {2}, &h, &has_null));
  EXPECT_TRUE(enc.EncodeColumns(row, {0, 1}, &out, &has_null));
}

TEST(KeyEncoderTest, ColumnOrdinalsResolvesPlainColumnsOnly) {
  const Schema schema({{"a", DataType::kInt64},
                       {"b", DataType::kString},
                       {"c", DataType::kFloat64}});
  std::vector<uint32_t> cols;

  auto plain = *BindAll({Expr::Column("c"), Expr::Column("a")}, schema);
  ASSERT_TRUE(KeyEncoder::ColumnOrdinals(plain, &cols));
  EXPECT_EQ(cols, (std::vector<uint32_t>{2, 0}));

  auto computed = *BindAll(
      {Expr::Column("a"),
       Expr::Binary(BinaryOp::kAdd, Expr::Column("a"), Expr::Literal(Value(int64_t{1})))},
      schema);
  EXPECT_FALSE(KeyEncoder::ColumnOrdinals(computed, &cols));

  auto literal = *BindAll({Expr::Literal(Value(int64_t{5}))}, schema);
  EXPECT_FALSE(KeyEncoder::ColumnOrdinals(literal, &cols));
}

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

// HashPartitionColumnar over a row batch, boxed back into rows.
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
                         HashPartitionColumnar(cb, keys, num_partitions));
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

TEST(HashPartitionSkewTest, LegacyIdentityHashStripesOnStridedKeys) {
  // Documents the pathology the mixer fixes: HashRow (identity on
  // int64) mod 16 maps stride-16 keys to a single partition.
  std::set<std::size_t> used;
  for (int64_t i = 0; i < 1000; ++i) {
    used.insert(HashRow({Value(i * 16)}) % 16);
  }
  EXPECT_EQ(used.size(), 1u);
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
