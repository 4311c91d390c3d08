#include "exec/serde.h"

#include <bit>
#include <cstring>

#include "common/compress.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace swift {

// The wire format stores multi-byte integers little-endian and the
// fixed-width codecs below memcpy them directly.
static_assert(std::endian::native == std::endian::little,
              "shuffle wire format assumes a little-endian host");

namespace {

/// "SWF2": schema written once; per-column validity bitmaps; value
/// encoding implied by the schema; varint lengths/counts; CRC32 footer.
constexpr uint32_t kMagicV2 = 0x53574632;

/// The one per-column encoding: bitmap + schema-typed values. Mode 1
/// (per-value type tags) is retired; the decoder rejects it as corrupt.
constexpr uint8_t kColTyped = 0;

std::size_t VarintSize(uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Bounds-checked cursor over a borrowed buffer. All reads — including
/// strings — return views into the buffer; nothing is copied until a
/// value lands in a column.
class Reader {
 public:
  explicit Reader(std::string_view buf) : buf_(buf) {}

  Result<uint8_t> U8() {
    if (buf_.size() - pos_ < 1) return Truncated();
    return static_cast<uint8_t>(buf_[pos_++]);
  }
  Result<uint32_t> U32() {
    if (buf_.size() - pos_ < 4) return Truncated();
    uint32_t v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(v));
    pos_ += 4;
    return v;
  }
  Result<uint64_t> Varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= buf_.size()) return Truncated();
      const uint8_t byte = static_cast<uint8_t>(buf_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    return Status::IOError(
        StrFormat("varint overruns 64 bits at offset %zu", pos_));
  }
  Result<std::string_view> Bytes(std::size_t n) {
    if (buf_.size() - pos_ < n) return Truncated();
    std::string_view s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  /// String: varint length prefix.
  Result<std::string_view> Str() {
    SWIFT_ASSIGN_OR_RETURN(uint64_t len, Varint());
    if (len > buf_.size() - pos_) return Truncated();
    return Bytes(static_cast<std::size_t>(len));
  }
  bool AtEnd() const { return pos_ == buf_.size(); }
  std::size_t Remaining() const { return buf_.size() - pos_; }

 private:
  Status Truncated() const {
    return Status::IOError(
        StrFormat("truncated batch buffer at offset %zu", pos_));
  }
  std::string_view buf_;
  std::size_t pos_ = 0;
};

void PutVarintAt(char*& p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
}

char* WriteHeader(const Schema& schema, std::size_t nrows, char* p) {
  std::memcpy(p, &kMagicV2, 4);
  p += 4;
  PutVarintAt(p, schema.num_fields());
  for (const Field& f : schema.fields()) {
    PutVarintAt(p, f.name.size());
    std::memcpy(p, f.name.data(), f.name.size());
    p += f.name.size();
    *p++ = static_cast<char>(f.type);
  }
  PutVarintAt(p, nrows);
  return p;
}

std::size_t HeaderSize(const Schema& schema, std::size_t nrows) {
  std::size_t n = 4 + VarintSize(schema.num_fields());
  for (const Field& f : schema.fields()) {
    n += VarintSize(f.name.size()) + f.name.size() + 1;
  }
  return n + VarintSize(nrows);
}

/// A column's rep is its field type's, or kNull (every cell NULL).
bool Conforms(const ColumnVector& col, DataType field_type) {
  return col.rep() == ColumnRep::kNull ||
         static_cast<uint8_t>(col.rep()) == static_cast<uint8_t>(field_type);
}

/// Decodes one v2 buffer (magic checked by the caller): CRC first, then
/// header and per-column bounds. Each column decodes in one pass straight
/// into ColumnVector storage — a fixed-width column with no nulls is a
/// single memcpy off the wire and one with nulls scatters through the
/// bitmap. Any column mode but typed is IOError.
Result<ColumnBatch> DeserializeV2(std::string_view bytes) {
  if (bytes.size() < 8) {
    return Status::IOError("v2 batch buffer shorter than magic + CRC");
  }
  // Verify the footer before trusting any decoded count: corruption is
  // caught here, so the size guards below only defend against the
  // astronomically unlikely CRC collision.
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  const uint32_t actual_crc = Crc32(bytes.substr(0, bytes.size() - 4));
  if (stored_crc != actual_crc) {
    return Status::IOError(
        StrFormat("batch CRC32 mismatch (stored %08x, computed %08x)",
                  stored_crc, actual_crc));
  }
  Reader rd(bytes.substr(4, bytes.size() - 8));  // body: magic..footer
  SWIFT_ASSIGN_OR_RETURN(uint64_t nfields64, rd.Varint());
  // Every field needs at least 2 bytes (name length + type tag).
  if (nfields64 > rd.Remaining() / 2) {
    return Status::IOError("field count exceeds buffer");
  }
  const std::size_t nfields = static_cast<std::size_t>(nfields64);
  std::vector<Field> fields;
  fields.reserve(nfields);
  for (std::size_t i = 0; i < nfields; ++i) {
    Field f;
    SWIFT_ASSIGN_OR_RETURN(std::string_view name, rd.Str());
    f.name = std::string(name);
    SWIFT_ASSIGN_OR_RETURN(uint8_t t, rd.U8());
    if (t > static_cast<uint8_t>(DataType::kString)) {
      return Status::IOError("bad field type tag");
    }
    f.type = static_cast<DataType>(t);
    fields.push_back(std::move(f));
  }
  SWIFT_ASSIGN_OR_RETURN(uint64_t nrows64, rd.Varint());
  // Plausibility: each column carries at least a bitmap bit per row, and
  // a zero-column batch should not claim an absurd row count.
  if (nfields > 0 && nrows64 / 8 > rd.Remaining() / nfields + 1) {
    return Status::IOError("row count exceeds buffer");
  }
  if (nfields == 0 && nrows64 > (1u << 28)) {
    return Status::IOError("row count exceeds buffer");
  }
  const std::size_t nrows = static_cast<std::size_t>(nrows64);
  ColumnBatch out;
  out.schema = Schema(std::move(fields));
  out.physical_rows = nrows;
  out.columns.reserve(nfields);
  for (std::size_t c = 0; c < nfields; ++c) {
    const DataType ft = out.schema.field(c).type;
    SWIFT_ASSIGN_OR_RETURN(uint8_t mode, rd.U8());
    if (mode != kColTyped) {
      return Status::IOError(StrFormat("bad column mode %u in column %zu",
                                       static_cast<unsigned>(mode), c));
    }
    SWIFT_ASSIGN_OR_RETURN(std::string_view bitmap,
                           rd.Bytes((nrows + 7) / 8));
    const uint8_t* bits = reinterpret_cast<const uint8_t*>(bitmap.data());
    std::size_t nonnull = 0;
    for (const char b : bitmap) {
      nonnull += std::popcount(static_cast<unsigned>(static_cast<uint8_t>(b)));
    }
    if ((nrows & 7) != 0 && !bitmap.empty() &&
        (static_cast<uint8_t>(bitmap.back()) >> (nrows & 7)) != 0) {
      return Status::IOError("bitmap padding bits set");
    }
    switch (ft) {
      case DataType::kNull:
        if (nonnull != 0) {
          return Status::IOError("non-null cell in null-typed column");
        }
        out.columns.push_back(ColumnVector::MakeNull(nrows));
        break;
      case DataType::kInt64:
      case DataType::kFloat64: {
        // One bounds check covers the whole fixed-width column.
        SWIFT_ASSIGN_OR_RETURN(std::string_view data,
                               rd.Bytes(nonnull * 8));
        ColumnVector col;
        col.ResizeFixedWidth(ft == DataType::kInt64 ? ColumnRep::kInt64
                                                    : ColumnRep::kFloat64,
                             nrows);
        char* dst = ft == DataType::kInt64
                        ? reinterpret_cast<char*>(col.MutableInt64Data())
                        : reinterpret_cast<char*>(col.MutableFloat64Data());
        if (nonnull == nrows) {
          // A zero-row column has no storage: memcpy from null is UB.
          if (nrows > 0) std::memcpy(dst, data.data(), 8 * nrows);
        } else {
          const char* src = data.data();
          for (std::size_t r = 0; r < nrows; ++r) {
            if ((bits[r >> 3] >> (r & 7)) & 1) {
              std::memcpy(dst + 8 * r, src, 8);
              src += 8;
            }
          }
          col.SetValidity(std::vector<uint8_t>(bits, bits + bitmap.size()),
                          nrows - nonnull);
        }
        out.columns.push_back(std::move(col));
        break;
      }
      case DataType::kString: {
        ColumnVector col = ColumnVector::OfType(DataType::kString);
        col.Reserve(nrows);
        for (std::size_t r = 0; r < nrows; ++r) {
          if ((bits[r >> 3] >> (r & 7)) & 1) {
            SWIFT_ASSIGN_OR_RETURN(std::string_view s, rd.Str());
            col.AppendString(s);
          } else {
            col.AppendNull();
          }
        }
        out.columns.push_back(std::move(col));
        break;
      }
    }
  }
  if (!rd.AtEnd()) {
    return Status::IOError("trailing bytes after batch");
  }
  return out;
}

}  // namespace

std::string SerializeColumnBatch(const ColumnBatch& batch) {
  SWIFT_CHECK(batch.columns.size() == batch.schema.num_fields())
      << "batch has " << batch.columns.size() << " columns, schema has "
      << batch.schema.num_fields();
  const std::size_t nfields = batch.schema.num_fields();
  const std::size_t nrows = batch.num_rows();
  const std::size_t bitmap_len = (nrows + 7) / 8;
  const uint32_t* sel = batch.selection ? batch.selection->data() : nullptr;
  // Sizing pass: header + per column (mode byte + bitmap + payload) +
  // CRC.
  std::size_t total = HeaderSize(batch.schema, nrows) + 4;
  for (std::size_t c = 0; c < nfields; ++c) {
    const ColumnVector& col = batch.columns[c];
    const Field& field = batch.schema.field(c);
    SWIFT_CHECK(Conforms(col, field.type))
        << "column '" << field.name << "' holds "
        << DataTypeToString(static_cast<DataType>(col.rep()))
        << " cells under a " << DataTypeToString(field.type) << " field";
    total += 1 + bitmap_len;
    switch (col.rep()) {
      case ColumnRep::kNull:
        break;
      case ColumnRep::kInt64:
      case ColumnRep::kFloat64: {
        std::size_t nonnull = nrows;
        if (col.has_nulls()) {
          nonnull = 0;
          for (std::size_t j = 0; j < nrows; ++j) {
            nonnull += col.IsNull(sel ? sel[j] : j) ? 0 : 1;
          }
        }
        total += 8 * nonnull;
        break;
      }
      case ColumnRep::kString: {
        for (std::size_t j = 0; j < nrows; ++j) {
          const std::size_t i = sel ? sel[j] : j;
          if (col.IsNull(i)) continue;
          const std::size_t len = col.StrAt(i).size();
          total += VarintSize(len) + len;
        }
        break;
      }
    }
  }
  std::string out(total, '\0');
  char* const base = out.data();
  char* p = WriteHeader(batch.schema, nrows, base);
  for (std::size_t c = 0; c < nfields; ++c) {
    const ColumnVector& col = batch.columns[c];
    *p++ = static_cast<char>(kColTyped);
    char* const bitmap = p;  // pre-zeroed by the string fill
    p += bitmap_len;
    const bool dense = sel == nullptr && !col.has_nulls();
    if (dense && bitmap_len != 0 && col.rep() != ColumnRep::kNull) {
      std::memset(bitmap, 0xFF, bitmap_len);
      if ((nrows & 7) != 0) {
        bitmap[bitmap_len - 1] =
            static_cast<char>((1u << (nrows & 7)) - 1);
      }
    }
    switch (col.rep()) {
      case ColumnRep::kNull:
        break;  // all-zero bitmap, no payload
      case ColumnRep::kInt64:
      case ColumnRep::kFloat64: {
        const char* data =
            col.rep() == ColumnRep::kInt64
                ? reinterpret_cast<const char*>(col.Int64Data())
                : reinterpret_cast<const char*>(col.Float64Data());
        if (dense) {
          // The near-memcpy fast path: contiguous host storage is
          // already the wire encoding. A zero-row column has no storage.
          if (nrows > 0) std::memcpy(p, data, 8 * nrows);
          p += 8 * nrows;
          break;
        }
        for (std::size_t j = 0; j < nrows; ++j) {
          const std::size_t i = sel ? sel[j] : j;
          if (col.IsNull(i)) continue;
          bitmap[j >> 3] |= static_cast<char>(1u << (j & 7));
          std::memcpy(p, data + 8 * i, 8);
          p += 8;
        }
        break;
      }
      case ColumnRep::kString: {
        for (std::size_t j = 0; j < nrows; ++j) {
          const std::size_t i = sel ? sel[j] : j;
          if (col.IsNull(i)) continue;
          if (!dense) bitmap[j >> 3] |= static_cast<char>(1u << (j & 7));
          const std::string_view s = col.StrAt(i);
          PutVarintAt(p, s.size());
          std::memcpy(p, s.data(), s.size());
          p += s.size();
        }
        break;
      }
    }
  }
  const uint32_t crc = Crc32(std::string_view(base, total - 4));
  std::memcpy(base + total - 4, &crc, 4);
  return out;
}

Result<ColumnBatch> DeserializeColumnBatch(std::string_view bytes) {
  if (IsCompressedFrame(bytes)) {
    // Lazy decompression: the compressed bytes are the shared zero-copy
    // buffer all the way from the writer; this decode is the one
    // accounted copy. The inner payload must be a plain v2 batch — a
    // nested frame is rejected here, so corrupt input cannot recurse.
    SWIFT_ASSIGN_OR_RETURN(std::string raw, DecompressFrame(bytes));
    if (IsCompressedFrame(raw)) {
      return Status::IOError("nested compressed frame");
    }
    return DeserializeColumnBatch(raw);
  }
  Reader rd(bytes);
  SWIFT_ASSIGN_OR_RETURN(uint32_t magic, rd.U32());
  if (magic != kMagicV2) return Status::IOError("bad batch magic");
  return DeserializeV2(bytes);
}

std::string SerializeBatch(const Batch& batch) {
  Result<ColumnBatch> columns = ToColumnBatch(batch);
  SWIFT_CHECK(columns.ok()) << columns.status().ToString();
  return SerializeColumnBatch(*columns);
}

Result<Batch> DeserializeBatch(std::string_view bytes) {
  SWIFT_ASSIGN_OR_RETURN(ColumnBatch columns, DeserializeColumnBatch(bytes));
  return ToRowBatch(columns);
}

}  // namespace swift
