#include "exec/key_order.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <optional>
#include <string_view>

#include "exec/expr_eval.h"

namespace swift {

static_assert(std::endian::native == std::endian::little,
              "the key encoder's big-endian stores assume a little-endian "
              "host");

int CompareCells(const ColumnVector& a, std::size_t i, const ColumnVector& b,
                 std::size_t j) {
  const bool ln = a.IsNull(i);
  const bool rn = b.IsNull(j);
  if (ln || rn) return ln == rn ? 0 : (ln ? -1 : 1);
  const ColumnRep ra = a.rep();
  const ColumnRep rb = b.rep();
  // The plan types a comparator's key columns, and Bind rejects a number
  // against a string, so a string cell meets a string cell.
  if (ra == ColumnRep::kString) {
    const int c = a.StrAt(i).compare(b.StrAt(j));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (ra == ColumnRep::kInt64 && rb == ColumnRep::kInt64) {
    const int64_t x = a.Int64At(i);
    const int64_t y = b.Int64At(j);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const double x = ra == ColumnRep::kInt64 ? static_cast<double>(a.Int64At(i))
                                           : a.Float64At(i);
  const double y = rb == ColumnRep::kInt64 ? static_cast<double>(b.Int64At(j))
                                           : b.Float64At(j);
  return expr_eval::CompareFloat64(x, y);
}

KeyComparator::KeyComparator(const std::vector<const ColumnVector*>& a,
                             const std::vector<const ColumnVector*>& b,
                             const std::vector<bool>& descending) {
  keys_.reserve(a.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    Kind kind = Kind::kCells;
    if (a[k]->rep() == b[k]->rep() && !a[k]->has_nulls() &&
        !b[k]->has_nulls()) {
      switch (a[k]->rep()) {
        case ColumnRep::kInt64:
          kind = Kind::kInt64;
          break;
        case ColumnRep::kFloat64:
          kind = Kind::kFloat64;
          break;
        case ColumnRep::kString:
          kind = Kind::kString;
          break;
        default:
          break;
      }
    }
    const bool desc = k < descending.size() && descending[k];
    keys_.push_back(Key{kind, desc, a[k], b[k]});
  }
}

namespace {

// Longest string tail (past the batch's common prefix) the encoder
// keeps byte for byte. A longer tail keeps its first kStringCap bytes,
// and rows that tie on them finish under the comparator.
constexpr std::size_t kStringCap = 32;

// Below this many rows the sort items go through std::sort, which
// gives the same order as the radix passes without their histograms.
constexpr std::size_t kRadixMinRows = 256;

// Bytes that hold every value of [0, range].
int BytesFor(uint64_t range) {
  return range == 0 ? 0 : (71 - std::countl_zero(range)) / 8;
}

// Order-preserving unsigned images of non-NULL cells: int64 flips the
// sign bit; a double maps -0.0 to +0.0's image and every NaN to the
// canonical quiet NaN's, since each pair compares equal
// (expr_eval::CompareFloat64), then flips every bit of a negative and
// sets the sign bit of a non-negative, so NaN lands above +inf.
uint64_t OrderedBits(int64_t x) {
  return static_cast<uint64_t>(x) ^ (uint64_t{1} << 63);
}
uint64_t OrderedBits(double x) {
  const uint64_t u = std::bit_cast<uint64_t>(expr_eval::CanonicalFloat64(x));
  return (u >> 63) != 0 ? ~u : u | (uint64_t{1} << 63);
}

// The low `bytes` bytes of v, most significant first.
template <int kBytes>
void StoreBigEndian(uint8_t* p, uint64_t v) {
  const uint64_t be = __builtin_bswap64(v << (64 - 8 * kBytes));
  std::memcpy(p, &be, kBytes);
}
void StoreBigEndian(uint8_t* p, uint64_t v, int bytes) {
  const uint64_t be = __builtin_bswap64(v << (64 - 8 * bytes));
  std::memcpy(p, &be, static_cast<std::size_t>(bytes));
}

// One key column's slice of the encoded row key: an optional NULL flag
// byte (0 NULL, 1 value), then the value bytes; a descending key
// stores the whole slice inverted.
struct ColumnCode {
  const ColumnVector* col = nullptr;
  bool descending = false;
  std::size_t offset = 0;  // within the row key
  bool null_flag = false;
  // int64/float64: code = OrderedBits - base, plus one when NULL takes
  // code 0 (null_zero), in the fewest bytes the batch's range needs.
  bool null_zero = false;
  uint64_t base = 0;
  int value_bytes = 0;
  // string: the batch's common prefix is dropped and the tail padded
  // with zero bytes to `body`, then a length code when lengths differ
  // ("a" < "a\0"): min(tail, kStringCap + 1) - len_base, so every tail
  // cut at the cap shares one length code.
  std::size_t prefix = 0;
  std::size_t body = 0;
  uint64_t len_base = 0;
  int len_bytes = 0;
  bool capped = false;

  std::size_t width() const {
    return (null_flag ? 1 : 0) + static_cast<std::size_t>(value_bytes) +
           body + static_cast<std::size_t>(len_bytes);
  }
};

// Plans an int64 or float64 column. An all-NULL column takes no bytes.
template <typename T>
void PlanFixed(const T* data, std::size_t n, ColumnCode* cc) {
  const ColumnVector& c = *cc->col;
  const bool nulls = c.has_nulls();
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (nulls && c.IsNull(i)) continue;
    const uint64_t u = OrderedBits(data[i]);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    any = true;
  }
  if (!any) return;
  const uint64_t range = hi - lo;
  cc->base = lo;
  if (!nulls) {
    cc->value_bytes = BytesFor(range);
  } else if (range != UINT64_MAX) {
    cc->null_zero = true;
    cc->value_bytes = BytesFor(range + 1);
  } else {
    cc->null_flag = true;
    cc->value_bytes = 8;
  }
}

template <int kBytes, typename T>
void PutFixed(const ColumnCode& cc, const T* data, std::size_t n,
              uint8_t* keys, std::size_t stride) {
  const ColumnVector& c = *cc.col;
  const bool nulls = c.has_nulls();
  const uint64_t flip = cc.descending ? ~uint64_t{0} : 0;
  const uint64_t shift = cc.null_zero ? 1 : 0;
  uint8_t* p = keys + cc.offset;
  for (std::size_t i = 0; i < n; ++i, p += stride) {
    const bool valid = !(nulls && c.IsNull(i));
    const uint64_t v = valid ? OrderedBits(data[i]) - cc.base + shift : 0;
    uint8_t* q = p;
    if (cc.null_flag) *q++ = static_cast<uint8_t>((valid ? 1 : 0) ^ flip);
    StoreBigEndian<kBytes>(q, v ^ flip);
  }
}

template <typename T>
void PutFixedColumn(const ColumnCode& cc, const T* data, std::size_t n,
                    uint8_t* keys, std::size_t stride) {
  switch (cc.value_bytes) {
    case 1:
      return PutFixed<1>(cc, data, n, keys, stride);
    case 2:
      return PutFixed<2>(cc, data, n, keys, stride);
    case 3:
      return PutFixed<3>(cc, data, n, keys, stride);
    case 4:
      return PutFixed<4>(cc, data, n, keys, stride);
    case 5:
      return PutFixed<5>(cc, data, n, keys, stride);
    case 6:
      return PutFixed<6>(cc, data, n, keys, stride);
    case 7:
      return PutFixed<7>(cc, data, n, keys, stride);
    case 8:
      return PutFixed<8>(cc, data, n, keys, stride);
    default:
      return;
  }
}

void PlanString(std::size_t n, ColumnCode* cc) {
  const ColumnVector& c = *cc->col;
  const bool nulls = c.has_nulls();
  std::string_view first;
  std::size_t prefix = 0;
  std::size_t min_len = SIZE_MAX;
  std::size_t max_len = 0;
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (nulls && c.IsNull(i)) continue;
    const std::string_view s = c.StrAt(i);
    if (!any) {
      first = s;
      prefix = s.size();
      any = true;
    } else if (prefix > 0) {
      // Most rows keep the whole prefix: one memcmp, and a byte walk
      // only on a mismatch.
      const std::size_t limit = std::min(prefix, s.size());
      if (std::memcmp(s.data(), first.data(), limit) == 0) {
        prefix = limit;
      } else {
        std::size_t k = 0;
        while (s[k] == first[k]) ++k;
        prefix = k;
      }
    }
    min_len = std::min(min_len, s.size());
    max_len = std::max(max_len, s.size());
  }
  if (!any) return;
  const std::size_t max_tail = max_len - prefix;
  const auto len_code = [](std::size_t tail) {
    return static_cast<uint64_t>(std::min(tail, kStringCap + 1));
  };
  cc->null_flag = nulls;
  cc->prefix = prefix;
  cc->body = std::min(max_tail, kStringCap);
  cc->capped = max_tail > kStringCap;
  cc->len_base = len_code(min_len - prefix);
  cc->len_bytes = BytesFor(len_code(max_tail) - cc->len_base);
}

void PutString(const ColumnCode& cc, std::size_t n, uint8_t* keys,
               std::size_t stride) {
  const ColumnVector& c = *cc.col;
  const bool nulls = c.has_nulls();
  const std::size_t width = cc.width();
  uint8_t* p = keys + cc.offset;
  for (std::size_t i = 0; i < n; ++i, p += stride) {
    // NULL rows keep the buffer's zeros after their flag byte.
    const bool valid = !(nulls && c.IsNull(i));
    uint8_t* q = p;
    if (cc.null_flag) *q++ = valid ? 1 : 0;
    if (valid) {
      const std::string_view s = c.StrAt(i);
      const std::size_t tail = s.size() - cc.prefix;
      const std::size_t m = std::min(tail, cc.body);
      if (m <= 8) {
        for (std::size_t k = 0; k < m; ++k) q[k] = s[cc.prefix + k];
      } else {
        std::memcpy(q, s.data() + cc.prefix, m);
      }
      if (cc.len_bytes > 0) {
        StoreBigEndian(q + cc.body,
                       std::min(tail, kStringCap + 1) - cc.len_base,
                       cc.len_bytes);
      }
    }
    if (cc.descending) {
      for (std::size_t k = 0; k < width; ++k) p[k] = ~p[k];
    }
  }
}

// Writes every planned column's slice of each row key: row i's key
// starts at base + i * stride.
void EncodeColumns(const std::vector<ColumnCode>& codes, std::size_t n,
                   uint8_t* base, std::size_t stride) {
  for (const ColumnCode& cc : codes) {
    switch (cc.col->rep()) {
      case ColumnRep::kInt64:
        PutFixedColumn(cc, cc.col->Int64Data(), n, base, stride);
        break;
      case ColumnRep::kFloat64:
        PutFixedColumn(cc, cc.col->Float64Data(), n, base, stride);
        break;
      case ColumnRep::kString:
        PutString(cc, n, base, stride);
        break;
      case ColumnRep::kNull:
        break;
    }
  }
}

// The sort items: a row key's leading bytes as a big-endian integer,
// left-aligned in 64 bits, and the row. A key that fits beside its row
// in one uint64 packs both (key high, row in the low row_bits), so the
// integer order is (key, row); a wider key keeps its first 8 bytes
// beside the row.
struct PackedItems {
  using Item = uint64_t;
  int row_bits;
  uint64_t Key(Item it) const { return it; }
  uint64_t Prefix(Item it) const { return it >> row_bits; }
  uint32_t Row(Item it) const {
    return static_cast<uint32_t>(it & ((uint64_t{1} << row_bits) - 1));
  }
  Item Make(uint64_t prefix, uint32_t row) const { return prefix | row; }
};
struct WideItems {
  struct Item {
    uint64_t prefix;
    uint32_t row;
  };
  uint64_t Key(const Item& it) const { return it.prefix; }
  uint64_t Prefix(const Item& it) const { return it.prefix; }
  uint32_t Row(const Item& it) const { return it.row; }
  Item Make(uint64_t prefix, uint32_t row) const { return Item{prefix, row}; }
};

// Sorts `items`, which arrive in row order, by (key, row): a stable LSD
// radix sort over the key's bytes, low to high, skipping each byte
// every item shares. The bytes below the key (zeros, or a packed row)
// get no pass: stability keeps the rows in order.
template <typename Layout>
void SortItems(const Layout& layout, int key_bytes,
               std::vector<typename Layout::Item>* items) {
  using Item = typename Layout::Item;
  const std::size_t n = items->size();
  if (n < kRadixMinRows) {
    std::sort(items->begin(), items->end(), [&](const Item& a, const Item& b) {
      const uint64_t x = layout.Key(a);
      const uint64_t y = layout.Key(b);
      return x != y ? x < y : layout.Row(a) < layout.Row(b);
    });
    return;
  }
  const int lo_digit = 8 - key_bytes;
  std::vector<uint32_t> hist(8 * 256, 0);
  uint32_t* const counts = hist.data();
  const Item* const in = items->data();
  for (std::size_t i = 0; i < n; ++i) {
    const uint64_t key = layout.Key(in[i]);
    for (int d = lo_digit; d < 8; ++d) {
      ++counts[d * 256 + ((key >> (8 * d)) & 0xFF)];
    }
  }
  std::vector<Item> tmp(n);
  Item* src = items->data();
  Item* dst = tmp.data();
  for (int d = lo_digit; d < 8; ++d) {
    const uint32_t* const h = counts + d * 256;
    const int shift = 8 * d;
    if (h[(layout.Key(src[0]) >> shift) & 0xFF] == n) continue;
    uint32_t offsets[256];
    uint32_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      offsets[b] = sum;
      sum += h[b];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Item it = src[i];
      dst[offsets[(layout.Key(it) >> shift) & 0xFF]++] = it;
    }
    std::swap(src, dst);
  }
  if (src != items->data()) items->swap(tmp);
}

// Encodes, sorts and resolves ties. A key of at most 8 bytes is written
// straight into the items; a wider one into a row-major buffer whose
// bytes past the first 8 decide the rows that tie on them.
template <typename Layout>
std::vector<uint32_t> SortEncoded(const Layout& layout,
                                  const std::vector<const ColumnVector*>& keys,
                                  const std::vector<bool>& descending,
                                  const std::vector<ColumnCode>& codes,
                                  std::size_t width, bool exact,
                                  std::size_t n) {
  using Item = typename Layout::Item;
  std::vector<Item> items(n);
  std::vector<uint8_t> wide;
  uint8_t* base = reinterpret_cast<uint8_t*>(items.data());
  std::size_t stride = sizeof(Item);
  if (width > 8) {
    wide.assign(n * width, 0);
    base = wide.data();
    stride = width;
  }
  EncodeColumns(codes, n, base, stride);
  // Bytes past a key inside an item are still zero.
  for (std::size_t i = 0; i < n; ++i) {
    uint64_t w = 0;
    std::memcpy(&w, base + i * stride, sizeof(w));
    items[i] = layout.Make(__builtin_bswap64(w), static_cast<uint32_t>(i));
  }
  SortItems(layout, static_cast<int>(std::min<std::size_t>(width, 8)),
            &items);

  // Runs that tie on the prefix finish on the remaining bytes, then by
  // row; runs that tie on every byte of an inexact key finish under the
  // comparator (stable, so equal keys stay in row order).
  const std::size_t rest = width > 8 ? width - 8 : 0;
  const auto tail = [&](const Item& it) {
    return wide.data() + std::size_t{layout.Row(it)} * width + 8;
  };
  std::optional<KeyComparator> cmp;
  if (!exact) cmp.emplace(keys, keys, descending);
  for (std::size_t lo = 0; lo < n && (rest > 0 || !exact);) {
    std::size_t hi = lo + 1;
    while (hi < n && layout.Prefix(items[hi]) == layout.Prefix(items[lo])) {
      ++hi;
    }
    if (hi - lo > 1 && rest > 0) {
      std::sort(items.begin() + lo, items.begin() + hi,
                [&](const Item& a, const Item& b) {
                  const int c = std::memcmp(tail(a), tail(b), rest);
                  return c != 0 ? c < 0 : layout.Row(a) < layout.Row(b);
                });
    }
    if (hi - lo > 1 && cmp.has_value()) {
      for (std::size_t a = lo; a < hi;) {
        std::size_t b = a + 1;
        while (b < hi &&
               (rest == 0 ||
                std::memcmp(tail(items[a]), tail(items[b]), rest) == 0)) {
          ++b;
        }
        if (b - a > 1) {
          std::stable_sort(items.begin() + a, items.begin() + b,
                           [&](const Item& x, const Item& y) {
                             return (*cmp)(layout.Row(x), layout.Row(y)) < 0;
                           });
        }
        a = b;
      }
    }
    lo = hi;
  }
  std::vector<uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = layout.Row(items[i]);
  return perm;
}

}  // namespace

std::vector<uint32_t> SortPermutation(
    const std::vector<const ColumnVector*>& keys,
    const std::vector<bool>& descending, std::size_t n) {
  const auto identity = [n] {
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    return perm;
  };
  if (n <= 1) return identity();

  // The encoded key ends with the first capped string column; the
  // comparator decides its ties, later keys included.
  std::vector<ColumnCode> codes;
  std::size_t width = 0;
  bool exact = true;
  for (std::size_t k = 0; k < keys.size() && exact; ++k) {
    ColumnCode cc;
    cc.col = keys[k];
    cc.descending = k < descending.size() && descending[k];
    switch (keys[k]->rep()) {
      case ColumnRep::kNull:
        break;
      case ColumnRep::kInt64:
        PlanFixed(keys[k]->Int64Data(), n, &cc);
        break;
      case ColumnRep::kFloat64:
        PlanFixed(keys[k]->Float64Data(), n, &cc);
        break;
      case ColumnRep::kString:
        PlanString(n, &cc);
        break;
    }
    if (cc.width() == 0) continue;
    cc.offset = width;
    width += cc.width();
    exact = !cc.capped;
    codes.push_back(cc);
  }
  if (width == 0) return identity();  // every row's key is equal
  const int row_bytes = std::max(BytesFor(n - 1), 1);
  if (width + static_cast<std::size_t>(row_bytes) <= 8) {
    return SortEncoded(PackedItems{8 * row_bytes}, keys, descending, codes,
                       width, exact, n);
  }
  return SortEncoded(WideItems{}, keys, descending, codes, width, exact, n);
}

}  // namespace swift
