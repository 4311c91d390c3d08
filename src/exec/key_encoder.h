#ifndef SWIFT_EXEC_KEY_ENCODER_H_
#define SWIFT_EXEC_KEY_ENCODER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash64.h"
#include "common/result.h"
#include "exec/bound_expr.h"
#include "exec/value.h"

namespace swift {

/// \brief Serializes a key row into one contiguous, memcmp-comparable
/// byte string (DESIGN.md Sec. 12).
///
/// Per column: a tag byte (kNull / kInt64 / kFloat64 / kString), then
///  - int64: 8 bytes little-endian;
///  - float64: 8 bytes of the IEEE bit pattern;
///  - string: 4-byte little-endian length prefix, then the bytes.
/// The length prefix makes each column's encoding prefix-free, so the
/// concatenation over a multi-column key is injective (["ab","c"] never
/// collides with ["a","bc"]).
///
/// Numeric normalization preserves the executor's cross-numeric-type
/// equality contract (Value::Compare()==0 implies equal Hash(), see
/// exec/value.cc): a float64 whose value is integral and exactly
/// representable as int64 is encoded as that int64 (so 3.0 and 3 — and
/// -0.0 and 0 — produce identical bytes), and NaN payload bits are
/// canonicalized. Within the IEEE-exact range |v| < 2^53 this makes
/// byte equality coincide exactly with Compare()==0; mixed int64/float64
/// keys beyond 2^53 fall outside the contract because Compare() itself
/// stops being transitive there (it compares through lossy widening).
///
/// Encodings are equality-preserving, NOT order-preserving: memcmp on
/// them is a valid ==, not a valid <.
class KeyEncoder {
 public:
  /// Column tag bytes (first byte of every encoded column; doubles as
  /// the null-prefix byte the null check reads).
  enum Tag : uint8_t {
    kTagNull = 0,
    kTagInt64 = 1,
    kTagFloat64 = 2,
    kTagString = 3,
  };

  /// \brief Encodes `key` into the reused internal buffer and returns a
  /// view of it (valid until the next Encode on this encoder). Sets
  /// `*has_null` when any column is NULL — computed here so hot loops
  /// do not need a second pass over the values.
  std::string_view Encode(const Row& key, bool* has_null);

  /// \brief Column fast path: encodes `row[cols[0]], row[cols[1]], ...`
  /// directly — identical bytes to Encode() over the evaluated key row,
  /// without boxing each column through BoundExpr::Evaluate. Returns
  /// false when the row is narrower than an ordinal (the caller reports
  /// the same Internal error the evaluate path would have).
  bool EncodeColumns(const Row& row, const std::vector<uint32_t>& cols,
                     std::string_view* encoded, bool* has_null);

  /// \brief Column fast path for HashNormalized: same hash value, read
  /// straight from the row. Returns false on a too-narrow row.
  static bool HashColumns(const Row& row, const std::vector<uint32_t>& cols,
                          uint64_t* hash, bool* has_null);

  /// \brief Every logical row's encoded key + hash, produced by one
  /// vectorized pass over a ColumnBatch (EncodeBatchColumns).
  struct BatchKeys {
    std::string bytes;              // concatenated per-key encodings
    std::vector<uint32_t> offsets;  // n + 1 entries into `bytes`
    std::vector<uint64_t> hashes;   // HashEncoded(key(i))
    std::vector<uint8_t> null_key;  // 1 when key i contains a NULL

    std::size_t size() const { return hashes.size(); }
    std::string_view key(std::size_t i) const {
      return std::string_view(bytes.data() + offsets[i],
                              offsets[i + 1] - offsets[i]);
    }
  };

  /// \brief Columnar twin of EncodeColumns + HashEncoded: encodes the
  /// key columns of every logical row of `batch` (selection-aware) in
  /// column-at-a-time passes — byte- and hash-identical to
  /// EncodeColumns. Returns false when an ordinal is out of range or the
  /// concatenated keys would overflow the uint32 offsets (the operators
  /// report ResourceExhausted).
  static bool EncodeBatchColumns(const ColumnBatch& batch,
                                 const std::vector<uint32_t>& cols,
                                 BatchKeys* out);

  /// \brief Columnar twin of HashColumns: HashNormalized of every
  /// logical row's key, plus its NULL flag, without materializing key
  /// bytes (shuffle partitioning). Returns false on a bad ordinal.
  static bool HashBatchColumns(const ColumnBatch& batch,
                               const std::vector<uint32_t>& cols,
                               std::vector<uint64_t>* hashes,
                               std::vector<uint8_t>* has_null);

  /// \brief Resolves bound key expressions that are all plain column
  /// references into their row ordinals. Returns false (leaving `*cols`
  /// unspecified) when any key is a computed expression — callers fall
  /// back to EvalBoundKeys + Encode.
  static bool ColumnOrdinals(const std::vector<BoundExprPtr>& keys,
                             std::vector<uint32_t>* cols);

  /// \brief Appends one value's normalized encoding to `*out`.
  static void AppendValue(const Value& v, std::string* out);

  /// \brief Hashes an encoded key with the shared 64-bit mixer.
  static uint64_t HashEncoded(std::string_view encoded) {
    return Hash64(encoded);
  }

  /// \brief Hashes a key row directly under the same normalization as
  /// Encode (Compare()==0 rows hash identically) without materializing
  /// the bytes — the shuffle-write partition path only needs the hash,
  /// not a stored key. NOT the same function as HashEncoded(Encode(x));
  /// the two must not be mixed on one table. Sets `*has_null` like
  /// Encode.
  static uint64_t HashNormalized(const Row& key, bool* has_null);

  /// \brief Inverse of Encode for diagnostics and tests. Values decode
  /// to their normalized form (an integral float64 comes back as int64).
  static Result<Row> Decode(std::string_view encoded);

 private:
  std::string buf_;
};

}  // namespace swift

#endif  // SWIFT_EXEC_KEY_ENCODER_H_
