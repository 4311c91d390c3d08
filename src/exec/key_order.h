#ifndef SWIFT_EXEC_KEY_ORDER_H_
#define SWIFT_EXEC_KEY_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/column_batch.h"
#include "exec/expr_eval.h"

namespace swift {

/// \brief Cell comparison with Value::Compare semantics exactly: NULLs
/// first (and equal to each other), int64/int64 exact, mixed numerics by
/// double value under expr_eval::CompareFloat64 (-0.0 equals 0.0, NaN
/// equals NaN and sorts above +inf), strings lexicographic. The plan
/// types the key columns, so a number never meets a string. Reads typed
/// storage directly, never boxing.
int CompareCells(const ColumnVector& a, std::size_t i, const ColumnVector& b,
                 std::size_t j);

/// \brief Lexicographic CompareCells over parallel key columns, resolved
/// once per pair of key batches.
///
/// A column pair of one typed rep with no NULLs on either side compares
/// its storage directly; every other pair goes through CompareCells. Both
/// order float64 through expr_eval::CompareFloat64, so answers are
/// identical, and the order is a strict weak order. `a` and `b` may be
/// the same columns; `descending[k]` (absent = false) flips key k.
class KeyComparator {
 public:
  KeyComparator(const std::vector<const ColumnVector*>& a,
                const std::vector<const ColumnVector*>& b,
                const std::vector<bool>& descending = {});

  /// \brief Three-way comparison of row i of `a` with row j of `b`.
  int operator()(std::size_t i, std::size_t j) const {
    for (const Key& k : keys_) {
      int c = 0;
      switch (k.kind) {
        case Kind::kInt64:
          c = ThreeWay(k.a->Int64At(i), k.b->Int64At(j));
          break;
        case Kind::kFloat64:
          c = expr_eval::CompareFloat64(k.a->Float64At(i), k.b->Float64At(j));
          break;
        case Kind::kString:
          c = ThreeWay(k.a->StrAt(i).compare(k.b->StrAt(j)), 0);
          break;
        case Kind::kCells:
          c = CompareCells(*k.a, i, *k.b, j);
          break;
      }
      if (c != 0) return k.descending ? -c : c;
    }
    return 0;
  }

 private:
  template <typename T>
  static int ThreeWay(T x, T y) {
    return x < y ? -1 : (x > y ? 1 : 0);
  }

  enum class Kind : uint8_t { kInt64, kFloat64, kString, kCells };
  struct Key {
    Kind kind;
    bool descending;
    const ColumnVector* a;
    const ColumnVector* b;
  };
  std::vector<Key> keys_;
};

/// \brief The permutation that stable-sorts the `n` rows of the dense
/// key columns `keys` under KeyComparator(keys, keys, descending): equal
/// keys keep row order.
///
/// Each row's key tuple is encoded once into fixed-width bytes whose
/// memcmp order is the comparator's order (equal bytes exactly when the
/// keys compare equal), and (key prefix, row) items are LSD-radix
/// sorted, skipping bytes every row shares; rows that tie on an 8-byte
/// prefix finish on the remaining bytes.
/// A float64 key encodes -0.0 as 0.0 and every NaN as one code above
/// +inf, as expr_eval::CompareFloat64 orders them. A string key whose
/// tail (past the batch's common prefix) exceeds the encoder's cap
/// encodes only its first bytes and ends the encoded key; rows that tie
/// on the bytes finish under the comparator (std::stable_sort, the only
/// comparator sort). Key buffers live only inside the call.
std::vector<uint32_t> SortPermutation(
    const std::vector<const ColumnVector*>& keys,
    const std::vector<bool>& descending, std::size_t n);

}  // namespace swift

#endif  // SWIFT_EXEC_KEY_ORDER_H_
