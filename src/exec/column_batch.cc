#include "exec/column_batch.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"

// GCC 12 reports a spurious -Wmaybe-uninitialized inside std::variant's
// move machinery when Value temporaries are pushed into vectors (GCC
// PR 105593 family); the values are fully constructed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace swift {

namespace {

inline ColumnRep RepOf(DataType t) { return static_cast<ColumnRep>(t); }

}  // namespace

ColumnVector ColumnVector::OfType(DataType t) {
  ColumnVector c;
  switch (t) {
    case DataType::kNull:
      break;
    case DataType::kInt64:
      c.rep_ = ColumnRep::kInt64;
      break;
    case DataType::kFloat64:
      c.rep_ = ColumnRep::kFloat64;
      break;
    case DataType::kString:
      c.rep_ = ColumnRep::kString;
      c.offsets_.push_back(0);
      break;
  }
  return c;
}

ColumnVector ColumnVector::OfRep(ColumnRep r) {
  return OfType(static_cast<DataType>(r));
}

ColumnVector ColumnVector::MakeNull(std::size_t n) {
  ColumnVector c;
  c.size_ = n;
  c.null_count_ = n;
  return c;
}

Value ColumnVector::GetValue(std::size_t i) const {
  switch (rep_) {
    case ColumnRep::kNull:
      return Value::Null();
    case ColumnRep::kInt64:
      return IsNull(i) ? Value::Null() : Value(i64_[i]);
    case ColumnRep::kFloat64:
      return IsNull(i) ? Value::Null() : Value(f64_[i]);
    case ColumnRep::kString:
      return IsNull(i) ? Value::Null() : Value(std::string(StrAt(i)));
  }
  return Value::Null();
}

void ColumnVector::Reserve(std::size_t n, std::size_t heap_bytes, bool nulls) {
  switch (rep_) {
    case ColumnRep::kNull:
      return;
    case ColumnRep::kInt64:
      i64_.reserve(n);
      break;
    case ColumnRep::kFloat64:
      f64_.reserve(n);
      break;
    case ColumnRep::kString:
      offsets_.reserve(n + 1);
      if (heap_bytes > heap_.capacity()) heap_.reserve(heap_bytes);
      break;
  }
  if (nulls) valid_.reserve((n + 7) / 8);
}

void ColumnVector::EnsureValidity() {
  // Empty bitmap means all-valid; materialize it as all-ones. Bits past
  // size_ in the last byte are don't-care (serialization masks them).
  if (valid_.empty() && size_ > 0) valid_.assign((size_ + 7) / 8, 0xFF);
}

void ColumnVector::MarkValid(std::size_t i) {
  if (valid_.empty()) return;  // still all-valid
  const std::size_t byte = i >> 3;
  if (byte >= valid_.size()) valid_.resize(byte + 1, 0);
  valid_[byte] = static_cast<uint8_t>(valid_[byte] | (1u << (i & 7)));
}

void ColumnVector::MarkNull(std::size_t i) {
  EnsureValidity();
  const std::size_t byte = i >> 3;
  if (byte >= valid_.size()) valid_.resize(byte + 1, 0);
  valid_[byte] = static_cast<uint8_t>(valid_[byte] & ~(1u << (i & 7)));
  ++null_count_;
}

void ColumnVector::CheckRep(ColumnRep r) const {
  SWIFT_CHECK(r == rep_) << "rep mismatch: "
                         << DataTypeToString(static_cast<DataType>(rep_))
                         << " column, "
                         << DataTypeToString(static_cast<DataType>(r))
                         << " cell";
}

void ColumnVector::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  CheckRep(RepOf(v.type()));
  switch (rep_) {
    case ColumnRep::kInt64:
      AppendInt64(v.int64_unchecked());
      break;
    case ColumnRep::kFloat64:
      AppendFloat64(v.float64_unchecked());
      break;
    case ColumnRep::kString:
      AppendString(v.str_unchecked());
      break;
    case ColumnRep::kNull:
      break;  // a non-null value failed CheckRep
  }
}

void ColumnVector::AppendNull() {
  switch (rep_) {
    case ColumnRep::kNull:
      ++size_;
      ++null_count_;
      return;
    case ColumnRep::kInt64:
      i64_.push_back(0);
      break;
    case ColumnRep::kFloat64:
      f64_.push_back(0.0);
      break;
    case ColumnRep::kString:
      offsets_.push_back(offsets_.back());
      break;
  }
  MarkNull(size_);
  ++size_;
}

void ColumnVector::AppendInt64Slow(int64_t v) {
  CheckRep(ColumnRep::kInt64);
  i64_.push_back(v);
  MarkValid(size_);
  ++size_;
}

void ColumnVector::AppendFloat64Slow(double v) {
  CheckRep(ColumnRep::kFloat64);
  f64_.push_back(v);
  MarkValid(size_);
  ++size_;
}

void ColumnVector::AppendString(std::string_view v) {
  CheckRep(ColumnRep::kString);
  heap_.append(v.data(), v.size());
  offsets_.push_back(heap_.size());
  MarkValid(size_);
  ++size_;
}

void ColumnVector::AppendFrom(const ColumnVector& src, std::size_t i) {
  CheckRep(src.rep_);
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (rep_) {
    case ColumnRep::kInt64:
      AppendInt64(src.i64_[i]);
      return;
    case ColumnRep::kFloat64:
      AppendFloat64(src.f64_[i]);
      return;
    case ColumnRep::kString:
      AppendString(src.StrAt(i));
      return;
    case ColumnRep::kNull:
      return;  // every kNull cell is NULL
  }
}

namespace {

inline bool BitSet(const uint8_t* bits, std::size_t i) {
  return (bits[i >> 3] & (1u << (i & 7))) != 0;
}

// Copies src[rows[k]] for k < n to dst[k]; a NULL source cell (a clear
// bit in `valid`, when there is one) writes 0, as AppendNull does.
template <typename T>
void GatherFixed(const T* src, const uint8_t* valid, const uint32_t* rows,
                 std::size_t n, T* dst) {
  if (valid == nullptr) {
    for (std::size_t k = 0; k < n; ++k) dst[k] = src[rows[k]];
    return;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const uint32_t r = rows[k];
    dst[k] = BitSet(valid, r) ? src[r] : T{0};
  }
}

}  // namespace

void ColumnVector::AppendSelected(const ColumnVector& src, const uint32_t* rows,
                                  std::size_t n) {
  CheckRep(src.rep_);
  if (n == 0) return;
  if (rep_ == ColumnRep::kNull) {
    size_ += n;
    null_count_ += n;
    return;
  }
  // One pass over the source bitmap finds the selected NULLs, so the
  // value loops below know whether they need a bit test at all.
  const uint8_t* sv = src.valid_.empty() ? nullptr : src.valid_.data();
  std::size_t nulls = 0;
  std::size_t first_null = n;
  if (sv != nullptr) {
    for (std::size_t k = 0; k < n; ++k) {
      if (!BitSet(sv, rows[k]) && nulls++ == 0) first_null = k;
    }
    if (nulls == 0) sv = nullptr;
  }
  switch (rep_) {
    case ColumnRep::kInt64:
      i64_.reserve(size_ + n);
      i64_.resize(size_ + n);
      GatherFixed(src.i64_.data(), sv, rows, n, i64_.data() + size_);
      break;
    case ColumnRep::kFloat64:
      f64_.reserve(size_ + n);
      f64_.resize(size_ + n);
      GatherFixed(src.f64_.data(), sv, rows, n, f64_.data() + size_);
      break;
    case ColumnRep::kString: {
      const uint64_t* so = src.offsets_.data();
      const auto len = [&](uint32_t r) -> uint64_t {
        return sv != nullptr && !BitSet(sv, r) ? 0 : so[r + 1] - so[r];
      };
      std::size_t bytes = 0;
      for (std::size_t k = 0; k < n; ++k) bytes += len(rows[k]);
      const std::size_t base = heap_.size();
      heap_.resize(base + bytes);
      char* h = heap_.data() + base;
      offsets_.reserve(size_ + n + 1);
      uint64_t off = base;
      for (std::size_t k = 0; k < n; ++k) {
        const uint32_t r = rows[k];
        const uint64_t l = len(r);
        std::memcpy(h, src.heap_.data() + so[r], l);
        h += l;
        off += l;
        offsets_.push_back(off);
      }
      break;
    }
    case ColumnRep::kNull:
      break;  // handled above
  }
  AppendGatheredValidity(sv, rows, 0, n, first_null, nulls);
}

void ColumnVector::AppendGatheredValidity(const uint8_t* src_valid,
                                          const uint32_t* rows,
                                          std::size_t begin, std::size_t n,
                                          std::size_t first_null,
                                          std::size_t nulls) {
  if (valid_.empty() && nulls == 0) {
    size_ += n;  // still all-valid: no bitmap
    return;
  }
  // Same bytes the per-cell appends leave: cells before the first NULL
  // add no bits to an all-valid column, the first NULL materializes the
  // all-ones bitmap (EnsureValidity) and each later cell writes its bit.
  std::size_t from = 0;
  if (valid_.empty()) {
    from = first_null;
    const std::size_t at = size_ + first_null;
    if (at > 0) valid_.assign((at + 7) / 8, 0xFF);
  }
  valid_.resize(std::max(valid_.size(), (size_ + n + 7) / 8), 0);
  for (std::size_t k = from; k < n; ++k) {
    const std::size_t i = size_ + k;
    const uint8_t mask = static_cast<uint8_t>(1u << (i & 7));
    uint8_t& byte = valid_[i >> 3];
    const std::size_t r = rows != nullptr ? rows[k] : begin + k;
    if (nulls == 0 || BitSet(src_valid, r)) {
      byte = static_cast<uint8_t>(byte | mask);
    } else {
      byte = static_cast<uint8_t>(byte & ~mask);
    }
  }
  null_count_ += nulls;
  size_ += n;
}

void ColumnVector::AppendRangeFrom(const ColumnVector& src, std::size_t begin,
                                   std::size_t len) {
  CheckRep(src.rep_);
  if (len == 0) return;
  Reserve(size_ + len);  // exact, like AppendSelected
  switch (rep_) {
    case ColumnRep::kNull:
      size_ += len;
      null_count_ += len;
      return;
    case ColumnRep::kInt64:
      i64_.insert(i64_.end(),
                  src.i64_.begin() + static_cast<std::ptrdiff_t>(begin),
                  src.i64_.begin() + static_cast<std::ptrdiff_t>(begin + len));
      break;
    case ColumnRep::kFloat64:
      f64_.insert(f64_.end(),
                  src.f64_.begin() + static_cast<std::ptrdiff_t>(begin),
                  src.f64_.begin() + static_cast<std::ptrdiff_t>(begin + len));
      break;
    case ColumnRep::kString: {
      const uint64_t s0 = src.offsets_[begin];
      const uint64_t s1 = src.offsets_[begin + len];
      const uint64_t base = heap_.size();
      heap_.append(src.heap_.data() + s0, s1 - s0);
      for (std::size_t i = 1; i <= len; ++i) {
        offsets_.push_back(base + (src.offsets_[begin + i] - s0));
      }
      break;
    }
  }
  const uint8_t* sv = src.valid_.empty() ? nullptr : src.valid_.data();
  std::size_t nulls = 0;
  std::size_t first_null = len;
  if (sv != nullptr) {
    for (std::size_t i = 0; i < len; ++i) {
      if (!BitSet(sv, begin + i) && nulls++ == 0) first_null = i;
    }
  }
  AppendGatheredValidity(sv, nullptr, begin, len, first_null, nulls);
}

void ColumnVector::ResizeFixedWidth(ColumnRep rep, std::size_t n) {
  rep_ = rep;
  size_ = n;
  null_count_ = 0;
  valid_.clear();
  if (rep == ColumnRep::kInt64) {
    i64_.resize(n);
  } else {
    f64_.resize(n);
  }
}

void ColumnVector::ResizeString(std::size_t n, std::size_t heap_bytes) {
  rep_ = ColumnRep::kString;
  size_ = n;
  null_count_ = 0;
  valid_.clear();
  offsets_.assign(n + 1, 0);
  heap_.resize(heap_bytes);
}

void ColumnVector::SetValidity(std::vector<uint8_t> bits,
                               std::size_t null_count) {
  valid_ = std::move(bits);
  null_count_ = null_count;
}

void ColumnBatch::Flatten() {
  if (!selection) return;
  const std::size_t n = selection->size();
  std::vector<ColumnVector> dense;
  dense.reserve(columns.size());
  for (const ColumnVector& col : columns) {
    ColumnVector nc = ColumnVector::OfRep(col.rep());
    nc.AppendSelected(col, selection->data(), n);
    dense.push_back(std::move(nc));
  }
  columns = std::move(dense);
  physical_rows = n;
  selection.reset();
}

void ColumnBatch::TruncateLogical(std::size_t k) {
  if (k >= num_rows()) return;
  if (selection) {
    selection->resize(k);
    return;
  }
  std::vector<uint32_t> sel(k);
  for (std::size_t i = 0; i < k; ++i) sel[i] = static_cast<uint32_t>(i);
  selection = std::move(sel);
}

ColumnBatch ColumnBatch::SliceRows(std::size_t begin, std::size_t len) const {
  ColumnBatch out;
  out.schema = schema;
  const std::size_t n = num_rows();
  if (begin > n) begin = n;
  len = std::min(len, n - begin);
  out.physical_rows = len;
  out.columns.reserve(columns.size());
  for (const ColumnVector& col : columns) {
    ColumnVector c = ColumnVector::OfRep(col.rep());
    if (selection) {
      c.AppendSelected(col, selection->data() + begin, len);
    } else {
      c.AppendRangeFrom(col, begin, len);
    }
    out.columns.push_back(std::move(c));
  }
  return out;
}

ColumnBatch EmptyBatchOf(const Schema& schema) {
  ColumnBatch out;
  out.schema = schema;
  out.columns.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    out.columns.push_back(ColumnVector::OfType(f.type));
  }
  return out;
}

Result<ColumnBatch> ToColumnBatch(const Batch& batch) {
  const std::size_t width = batch.schema.num_fields();
  for (std::size_t r = 0; r < batch.rows.size(); ++r) {
    if (batch.rows[r].size() != width) {
      return Status::InvalidArgument(StrFormat(
          "ragged batch: row %zu has %zu cells, schema has %zu", r,
          batch.rows[r].size(), width));
    }
  }
  ColumnBatch out;
  out.schema = batch.schema;
  out.physical_rows = batch.rows.size();
  out.columns.reserve(width);
  for (std::size_t c = 0; c < width; ++c) {
    const Field& field = batch.schema.field(c);
    ColumnVector col = ColumnVector::OfType(field.type);
    col.Reserve(batch.rows.size());
    for (std::size_t r = 0; r < batch.rows.size(); ++r) {
      const Value& v = batch.rows[r][c];
      const bool widens = v.is_int64() && field.type == DataType::kFloat64;
      if (!v.is_null() && v.type() != field.type && !widens) {
        return Status::InvalidArgument(StrFormat(
            "row %zu column '%s': %s cell under a %s field", r,
            field.name.c_str(), std::string(DataTypeToString(v.type())).c_str(),
            std::string(DataTypeToString(field.type)).c_str()));
      }
      if (widens) {
        col.AppendFloat64(static_cast<double>(v.int64_unchecked()));
      } else {
        col.Append(v);
      }
    }
    out.columns.push_back(std::move(col));
  }
  return out;
}

Batch ToRowBatch(const ColumnBatch& batch) {
  Batch out;
  out.schema = batch.schema;
  const std::size_t n = batch.num_rows();
  out.rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t phys = batch.PhysicalIndex(i);
    Row row;
    row.reserve(batch.columns.size());
    for (const ColumnVector& col : batch.columns) {
      row.push_back(col.GetValue(phys));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

ColumnBatch ConcatBatches(const Schema& schema,
                          std::vector<ColumnBatch> parts) {
  const std::size_t width = schema.num_fields();
  if (parts.size() == 1 && !parts[0].selection &&
      parts[0].columns.size() == width) {
    ColumnBatch out = std::move(parts[0]);
    out.schema = schema;
    return out;
  }
  ColumnBatch out = EmptyBatchOf(schema);
  std::size_t rows = 0;
  for (const ColumnBatch& p : parts) rows += p.num_rows();
  for (std::size_t c = 0; c < width; ++c) {
    ColumnVector& dst = out.columns[c];
    std::size_t heap_bytes = 0;
    bool nulls = false;
    for (const ColumnBatch& p : parts) {
      const ColumnVector& src = p.columns[c];
      nulls |= src.has_nulls();
      if (src.rep() != ColumnRep::kString) continue;
      if (!p.selection) {
        heap_bytes += src.Heap().size();
        continue;
      }
      for (const uint32_t r : *p.selection) heap_bytes += src.StrAt(r).size();
    }
    dst.Reserve(rows, heap_bytes, nulls);
    for (ColumnBatch& p : parts) {
      if (p.selection) {
        dst.AppendSelected(p.columns[c], p.selection->data(),
                           p.selection->size());
      } else {
        dst.AppendRangeFrom(p.columns[c], 0, p.physical_rows);
      }
      p.columns[c] = ColumnVector();  // freed as soon as it is copied
    }
  }
  out.physical_rows = rows;
  return out;
}

}  // namespace swift

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
