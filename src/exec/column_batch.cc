#include "exec/column_batch.h"

#include <cstring>
#include <limits>

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

inline ColumnRep RepForValue(const Value& v) {
  switch (v.type()) {
    case DataType::kInt64:
      return ColumnRep::kInt64;
    case DataType::kFloat64:
      return ColumnRep::kFloat64;
    case DataType::kString:
      return ColumnRep::kString;
    case DataType::kNull:
      break;
  }
  return ColumnRep::kNull;
}

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
  if (r == ColumnRep::kBoxed) {
    ColumnVector c;
    c.rep_ = ColumnRep::kBoxed;
    return c;
  }
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
    case ColumnRep::kBoxed:
      return boxed_[i];
  }
  return Value::Null();
}

void ColumnVector::Reserve(std::size_t n) {
  switch (rep_) {
    case ColumnRep::kNull:
      break;
    case ColumnRep::kInt64:
      i64_.reserve(n);
      break;
    case ColumnRep::kFloat64:
      f64_.reserve(n);
      break;
    case ColumnRep::kString:
      offsets_.reserve(n + 1);
      break;
    case ColumnRep::kBoxed:
      boxed_.reserve(n);
      break;
  }
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

void ColumnVector::RetypeFromNull(ColumnRep r) {
  // Every existing cell is NULL; install typed storage holding zeros
  // with an all-zero validity prefix.
  rep_ = r;
  switch (r) {
    case ColumnRep::kInt64:
      i64_.assign(size_, 0);
      break;
    case ColumnRep::kFloat64:
      f64_.assign(size_, 0.0);
      break;
    case ColumnRep::kString:
      offsets_.assign(size_ + 1, 0);
      break;
    case ColumnRep::kBoxed:
      boxed_.assign(size_, Value::Null());
      return;  // boxed tracks nulls in the Values
    case ColumnRep::kNull:
      return;
  }
  if (size_ > 0) valid_.assign((size_ + 7) / 8, 0);
}

void ColumnVector::Boxify() {
  if (rep_ == ColumnRep::kBoxed) return;
  std::vector<Value> b;
  b.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) b.push_back(GetValue(i));
  boxed_ = std::move(b);
  rep_ = ColumnRep::kBoxed;
  valid_.clear();
  i64_.clear();
  f64_.clear();
  offsets_.clear();
  heap_.clear();
}

void ColumnVector::Append(const Value& v) {
  switch (rep_) {
    case ColumnRep::kNull:
      if (v.is_null()) {
        ++size_;
        ++null_count_;
        return;
      }
      RetypeFromNull(RepForValue(v));
      Append(v);
      return;
    case ColumnRep::kInt64:
      if (v.is_null()) {
        AppendNull();
        return;
      }
      if (v.is_int64()) {
        AppendInt64(v.int64_unchecked());
        return;
      }
      break;
    case ColumnRep::kFloat64:
      if (v.is_null()) {
        AppendNull();
        return;
      }
      if (v.is_float64()) {
        AppendFloat64(v.float64_unchecked());
        return;
      }
      break;
    case ColumnRep::kString:
      if (v.is_null()) {
        AppendNull();
        return;
      }
      if (v.is_string()) {
        AppendString(v.str_unchecked());
        return;
      }
      break;
    case ColumnRep::kBoxed:
      if (v.is_null()) ++null_count_;
      boxed_.push_back(v);
      ++size_;
      return;
  }
  // Type deviation: degrade to boxed and retry.
  Boxify();
  Append(v);
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
    case ColumnRep::kBoxed:
      boxed_.push_back(Value::Null());
      ++null_count_;
      ++size_;
      return;
  }
  MarkNull(size_);
  ++size_;
}

void ColumnVector::AppendInt64(int64_t v) {
  if (rep_ == ColumnRep::kNull) RetypeFromNull(ColumnRep::kInt64);
  if (rep_ != ColumnRep::kInt64) {
    Append(Value(v));
    return;
  }
  i64_.push_back(v);
  MarkValid(size_);
  ++size_;
}

void ColumnVector::AppendFloat64(double v) {
  if (rep_ == ColumnRep::kNull) RetypeFromNull(ColumnRep::kFloat64);
  if (rep_ != ColumnRep::kFloat64) {
    Append(Value(v));
    return;
  }
  f64_.push_back(v);
  MarkValid(size_);
  ++size_;
}

void ColumnVector::AppendString(std::string_view v) {
  if (rep_ == ColumnRep::kNull) RetypeFromNull(ColumnRep::kString);
  if (rep_ != ColumnRep::kString) {
    Append(Value(std::string(v)));
    return;
  }
  // A >4 GiB heap would overflow the uint32 offsets; fall back to boxed
  // storage for such pathological columns.
  if (heap_.size() + v.size() >
      static_cast<std::size_t>(std::numeric_limits<uint32_t>::max())) {
    Boxify();
    Append(Value(std::string(v)));
    return;
  }
  heap_.append(v.data(), v.size());
  offsets_.push_back(static_cast<uint32_t>(heap_.size()));
  MarkValid(size_);
  ++size_;
}

void ColumnVector::AppendFrom(const ColumnVector& src, std::size_t i) {
  if (rep_ == src.rep_) {
    switch (rep_) {
      case ColumnRep::kNull:
        ++size_;
        ++null_count_;
        return;
      case ColumnRep::kInt64:
        if (src.IsNull(i)) {
          AppendNull();
        } else {
          AppendInt64(src.i64_[i]);
        }
        return;
      case ColumnRep::kFloat64:
        if (src.IsNull(i)) {
          AppendNull();
        } else {
          AppendFloat64(src.f64_[i]);
        }
        return;
      case ColumnRep::kString:
        if (src.IsNull(i)) {
          AppendNull();
        } else {
          AppendString(src.StrAt(i));
        }
        return;
      case ColumnRep::kBoxed:
        Append(src.boxed_[i]);
        return;
    }
  }
  // Cross-rep gather: cheap typed bridges before boxing through Value.
  if (src.rep_ == ColumnRep::kString && rep_ == ColumnRep::kNull &&
      !src.IsNull(i)) {
    AppendString(src.StrAt(i));
    return;
  }
  Append(src.GetValue(i));
}

void ColumnVector::AppendRangeFrom(const ColumnVector& src, std::size_t begin,
                                   std::size_t len) {
  if (len == 0) return;
  if (rep_ != src.rep_) {
    for (std::size_t i = 0; i < len; ++i) AppendFrom(src, begin + i);
    return;
  }
  switch (rep_) {
    case ColumnRep::kNull:
      size_ += len;
      null_count_ += len;
      return;
    case ColumnRep::kBoxed:
      boxed_.insert(boxed_.end(),
                    src.boxed_.begin() + static_cast<std::ptrdiff_t>(begin),
                    src.boxed_.begin() +
                        static_cast<std::ptrdiff_t>(begin + len));
      for (std::size_t i = 0; i < len; ++i) {
        if (src.boxed_[begin + i].is_null()) ++null_count_;
      }
      size_ += len;
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
      const uint32_t s0 = src.offsets_[begin];
      const uint32_t s1 = src.offsets_[begin + len];
      if (heap_.size() + (s1 - s0) >
          static_cast<std::size_t>(std::numeric_limits<uint32_t>::max())) {
        // Offsets would overflow: fall back to the adaptive path, which
        // boxifies when it hits the same wall.
        for (std::size_t i = 0; i < len; ++i) AppendFrom(src, begin + i);
        return;
      }
      const uint32_t base = static_cast<uint32_t>(heap_.size());
      heap_.append(src.heap_.data() + s0, s1 - s0);
      for (std::size_t i = 1; i <= len; ++i) {
        offsets_.push_back(base + (src.offsets_[begin + i] - s0));
      }
      break;
    }
  }
  // Validity for the typed reps: an empty bitmap means all-valid, so
  // bits are only materialized when either side already tracks nulls.
  const auto put_bit = [this](std::size_t i, bool valid) {
    const std::size_t byte = i >> 3;
    if (byte >= valid_.size()) valid_.resize(byte + 1, 0);
    if (valid) {
      valid_[byte] = static_cast<uint8_t>(valid_[byte] | (1u << (i & 7)));
    } else {
      valid_[byte] = static_cast<uint8_t>(valid_[byte] & ~(1u << (i & 7)));
    }
  };
  if (!src.valid_.empty()) {
    EnsureValidity();
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t s = begin + i;
      const bool valid = (src.valid_[s >> 3] & (1u << (s & 7))) != 0;
      put_bit(size_ + i, valid);
      if (!valid) ++null_count_;
    }
  } else if (!valid_.empty()) {
    for (std::size_t i = 0; i < len; ++i) put_bit(size_ + i, true);
  }
  size_ += len;
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
    nc.Reserve(n);
    for (std::size_t i = 0; i < n; ++i) nc.AppendFrom(col, (*selection)[i]);
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
      c.Reserve(len);
      for (std::size_t i = 0; i < len; ++i) {
        c.AppendFrom(col, (*selection)[begin + i]);
      }
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
    ColumnVector col = ColumnVector::OfType(batch.schema.field(c).type);
    col.Reserve(batch.rows.size());
    for (const Row& row : batch.rows) col.Append(row[c]);
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

void AppendColumnBatch(const ColumnBatch& src, ColumnBatch* dst) {
  if (dst->columns.empty() && dst->physical_rows == 0) {
    dst->schema = src.schema;
    dst->columns.reserve(src.columns.size());
    for (const ColumnVector& col : src.columns) {
      dst->columns.push_back(ColumnVector::OfRep(col.rep()));
    }
  }
  const std::size_t n = src.num_rows();
  for (std::size_t c = 0; c < src.columns.size(); ++c) {
    ColumnVector& out = dst->columns[c];
    out.Reserve(out.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
      out.AppendFrom(src.columns[c], src.PhysicalIndex(i));
    }
  }
  dst->physical_rows += n;
}

}  // namespace swift

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
