#ifndef SWIFT_EXEC_KEY_ENCODER_H_
#define SWIFT_EXEC_KEY_ENCODER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash64.h"

namespace swift {

class ColumnVector;

/// \brief Encodes key columns into one contiguous, memcmp-comparable
/// byte string per key row (DESIGN.md Sec. 12), or hashes them without
/// materializing the bytes.
///
/// Per column: a tag byte (kNull / kInt64 / kFloat64 / kString), then
///  - int64: 8 bytes little-endian;
///  - float64: 8 bytes of the IEEE bit pattern;
///  - string: 4-byte little-endian length prefix, then the bytes.
/// The length prefix makes each column's encoding prefix-free, so the
/// concatenation over a multi-column key is injective (["ab","c"] never
/// collides with ["a","bc"]).
///
/// Both functions see values, not column reps: a cell encodes and hashes
/// the same whether its column is kInt64, kFloat64, kString or kNull.
/// Numeric normalization keeps the executor's one value order
/// (expr_eval::CompareFloat64: -0.0 equals 0.0, every NaN is one value
/// equal to itself), so keys that compare equal get equal bytes and equal
/// hashes: a float64 whose value is integral and exactly representable
/// as int64 is encoded as that int64 (so 3.0 and 3, and -0.0 and 0,
/// produce identical bytes), and every NaN encodes as one canonical
/// quiet NaN. Within the IEEE-exact range |v| < 2^53 byte equality
/// coincides exactly with Value::Compare()==0; mixed int64/float64 keys
/// beyond 2^53 fall outside the contract because Compare() itself stops
/// being transitive there (it compares through lossy widening). Two
/// producers therefore route equal keys to the same partition whatever
/// reps their batches carry.
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

  /// \brief Every key row's encoded key + hash, produced by one
  /// vectorized pass over the key columns (EncodeColumns).
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

  /// \brief Encodes key columns read in place, in column-at-a-time
  /// passes, and hashes each key with HashEncoded: key i is row sel[i]
  /// (row i when `sel` is null) of every column in `cols`, for i < n.
  /// False when the keys exceed the 4 GiB offset range (the operators
  /// report ResourceExhausted).
  static bool EncodeColumns(const std::vector<const ColumnVector*>& cols,
                            const uint32_t* sel, std::size_t n,
                            BatchKeys* out);

  /// \brief Hashes key columns read as EncodeColumns reads them, plus
  /// each key's NULL flag, without materializing key bytes (shuffle
  /// partitioning). Each column's tag and normalized payload (a string's
  /// payload is its Hash64) fold into a seeded Mum mixer. NOT the same
  /// function as HashEncoded over EncodeColumns; the two must not be
  /// mixed on one table.
  static void HashColumns(const std::vector<const ColumnVector*>& cols,
                          const uint32_t* sel, std::size_t n,
                          std::vector<uint64_t>* hashes,
                          std::vector<uint8_t>* has_null);

  /// \brief Hashes an encoded key with the shared 64-bit mixer.
  static uint64_t HashEncoded(std::string_view encoded) {
    return Hash64(encoded);
  }
};

}  // namespace swift

#endif  // SWIFT_EXEC_KEY_ENCODER_H_
