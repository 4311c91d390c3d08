#include "exec/key_encoder.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "exec/column_batch.h"
#include "exec/expr_eval.h"

namespace swift {

namespace {

// Bounds of the int64 range in double space. 2^63 is exact as a double;
// values in [-2^63, 2^63) cast back to int64 without UB.
constexpr double kInt64Lo = -9223372036854775808.0;  // -2^63
constexpr double kInt64Hi = 9223372036854775808.0;   // 2^63

struct TagBits {
  uint8_t tag;
  uint64_t bits;
};

// One normalization for every double, so the cross-numeric-type
// contract holds between int64 and float64 columns:
// integral doubles in int64 range normalize to the int64 encoding so
// 3.0 == 3 (and -0.0 == 0) hold under memcmp, matching
// Value::Compare()'s equality.
inline TagBits NormalizeDouble(double d) {
  // Every NaN is one value (expr_eval::CompareFloat64).
  if (std::isnan(d)) {
    return {KeyEncoder::kTagFloat64, expr_eval::kCanonicalNaNBits};
  }
  if (d >= kInt64Lo && d < kInt64Hi) {
    const int64_t i = static_cast<int64_t>(d);
    if (static_cast<double>(i) == d) {
      return {KeyEncoder::kTagInt64, static_cast<uint64_t>(i)};
    }
  }
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return {KeyEncoder::kTagFloat64, bits};
}

// Little-endian store without per-byte capacity checks (the fast path
// writes into a pre-sized buffer).
inline char* StoreRaw64(uint64_t bits, char* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(bits >> (8 * i));
  return p + 8;
}

inline char* StoreRaw32(uint32_t bits, char* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(bits >> (8 * i));
  return p + 4;
}

}  // namespace

bool KeyEncoder::EncodeColumns(const std::vector<const ColumnVector*>& cols,
                               const uint32_t* sel, std::size_t n,
                               BatchKeys* out) {
  out->offsets.assign(n + 1, 0);
  out->null_key.assign(n, 0);
  // Pass 1: per-key encoded length, column at a time (offsets[i+1]
  // accumulates key i's length; prefix-summed below). Scalars are 9
  // bytes (tag + payload) or 1 (NULL tag); strings 5 + len.
  for (const ColumnVector* key : cols) {
    const ColumnVector& col = *key;
    switch (col.rep()) {
      case ColumnRep::kNull:
        for (std::size_t i = 0; i < n; ++i) {
          out->offsets[i + 1] += 1;
          out->null_key[i] = 1;
        }
        break;
      case ColumnRep::kInt64:
      case ColumnRep::kFloat64:
        if (!col.has_nulls()) {
          for (std::size_t i = 0; i < n; ++i) out->offsets[i + 1] += 9;
        } else {
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t phys = sel ? sel[i] : i;
            if (col.IsNull(phys)) {
              out->offsets[i + 1] += 1;
              out->null_key[i] = 1;
            } else {
              out->offsets[i + 1] += 9;
            }
          }
        }
        break;
      case ColumnRep::kString:
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t phys = sel ? sel[i] : i;
          if (col.IsNull(phys)) {
            out->offsets[i + 1] += 1;
            out->null_key[i] = 1;
          } else {
            out->offsets[i + 1] +=
                5 + static_cast<uint32_t>(col.StrAt(phys).size());
          }
        }
        break;
    }
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += out->offsets[i + 1];
    if (total > std::numeric_limits<uint32_t>::max()) return false;
    out->offsets[i + 1] = static_cast<uint32_t>(total);
  }
  out->bytes.resize(total);
  // Pass 2: write each column's encoding at every key's running cursor.
  std::vector<uint32_t> cur(out->offsets.begin(), out->offsets.end() - 1);
  char* base = out->bytes.data();
  for (const ColumnVector* key : cols) {
    const ColumnVector& col = *key;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t phys = sel ? sel[i] : i;
      char* p = base + cur[i];
      switch (col.rep()) {
        case ColumnRep::kNull:
          *p++ = static_cast<char>(kTagNull);
          break;
        case ColumnRep::kInt64:
          if (col.IsNull(phys)) {
            *p++ = static_cast<char>(kTagNull);
          } else {
            *p++ = static_cast<char>(kTagInt64);
            p = StoreRaw64(static_cast<uint64_t>(col.Int64At(phys)), p);
          }
          break;
        case ColumnRep::kFloat64:
          if (col.IsNull(phys)) {
            *p++ = static_cast<char>(kTagNull);
          } else {
            const TagBits tb = NormalizeDouble(col.Float64At(phys));
            *p++ = static_cast<char>(tb.tag);
            p = StoreRaw64(tb.bits, p);
          }
          break;
        case ColumnRep::kString:
          if (col.IsNull(phys)) {
            *p++ = static_cast<char>(kTagNull);
          } else {
            const std::string_view s = col.StrAt(phys);
            *p++ = static_cast<char>(kTagString);
            p = StoreRaw32(static_cast<uint32_t>(s.size()), p);
            std::memcpy(p, s.data(), s.size());
            p += s.size();
          }
          break;
      }
      cur[i] = static_cast<uint32_t>(p - base);
    }
  }
  // Pass 3: hash the finished encodings.
  out->hashes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out->hashes[i] = Hash64(base + out->offsets[i],
                            out->offsets[i + 1] - out->offsets[i]);
  }
  return true;
}

void KeyEncoder::HashColumns(const std::vector<const ColumnVector*>& cols,
                             const uint32_t* sel, std::size_t n,
                             std::vector<uint64_t>* hashes,
                             std::vector<uint8_t>* has_null) {
  using hash_internal::Mum;
  using hash_internal::kSecret2;
  hashes->assign(n, 0x58a3b1c96f0d2e47ULL);  // arbitrary nonzero seed
  has_null->assign(n, 0);
  uint64_t* h = hashes->data();
  uint8_t* nil = has_null->data();
  constexpr uint64_t kTagMul = 0x9E3779B97F4A7C15ULL;
  for (const ColumnVector* key : cols) {
    const ColumnVector& col = *key;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t phys = sel ? sel[i] : i;
      uint64_t tag;
      uint64_t bits;
      switch (col.rep()) {
        case ColumnRep::kNull:
          tag = kTagNull;
          bits = 0;
          nil[i] = 1;
          break;
        case ColumnRep::kInt64:
          if (col.IsNull(phys)) {
            tag = kTagNull;
            bits = 0;
            nil[i] = 1;
          } else {
            tag = kTagInt64;
            bits = static_cast<uint64_t>(col.Int64At(phys));
          }
          break;
        case ColumnRep::kFloat64:
          if (col.IsNull(phys)) {
            tag = kTagNull;
            bits = 0;
            nil[i] = 1;
          } else {
            const TagBits tb = NormalizeDouble(col.Float64At(phys));
            tag = tb.tag;
            bits = tb.bits;
          }
          break;
        default:  // kString
          if (col.IsNull(phys)) {
            tag = kTagNull;
            bits = 0;
            nil[i] = 1;
          } else {
            const std::string_view s = col.StrAt(phys);
            tag = kTagString;
            bits = Hash64(s.data(), s.size());
          }
          break;
      }
      h[i] = Mum(h[i] ^ (bits + tag * kTagMul), kSecret2);
    }
  }
}

}  // namespace swift
