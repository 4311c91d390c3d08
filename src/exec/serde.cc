#include "exec/serde.h"

#include <bit>
#include <cstring>
#include <optional>

#include "common/compress.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace swift {

// The wire format stores multi-byte integers little-endian and the
// fixed-width codecs below memcpy them directly.
static_assert(std::endian::native == std::endian::little,
              "shuffle wire format assumes a little-endian host");

namespace {

/// v1 ("SWFT"): self-describing — a type tag per value, a column count
/// per row, u32 string lengths. Still written for ragged batches and
/// accepted forever.
constexpr uint32_t kMagicV1 = 0x53574654;
/// v2 ("SWF2"): schema written once; per-column validity bitmaps; value
/// encoding implied by the schema; varint lengths/counts; CRC32 footer.
constexpr uint32_t kMagicV2 = 0x53574632;

/// Per-column encodings of v2.
constexpr uint8_t kColTyped = 0;   ///< bitmap + schema-typed values
constexpr uint8_t kColTagged = 1;  ///< per-value type tags (mixed column)

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, sizeof(b));
  out->append(b, sizeof(b));
}
void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, sizeof(b));
  out->append(b, sizeof(b));
}
void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}
void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}
std::size_t VarintSize(uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}
void PutStrV1(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked cursor over a borrowed buffer. All reads — including
/// strings — return views into the buffer; nothing is copied until a
/// Value is materialized.
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
  Result<uint64_t> U64() {
    if (buf_.size() - pos_ < 8) return Truncated();
    uint64_t v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(v));
    pos_ += 8;
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
  /// v1 string: u32 length prefix. A view, not a substr copy.
  Result<std::string_view> StrV1() {
    SWIFT_ASSIGN_OR_RETURN(uint32_t len, U32());
    return Bytes(len);
  }
  /// v2 string: varint length prefix.
  Result<std::string_view> StrV2() {
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

/// True when every row has exactly one cell per schema field — the
/// precondition for the schema-elided v2 encoding.
bool UniformRows(const Batch& batch) {
  const std::size_t width = batch.schema.num_fields();
  for (const Row& r : batch.rows) {
    if (r.size() != width) return false;
  }
  return true;
}

void PutVarintAt(char*& p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
}

char* WriteV2HeaderParts(const Schema& schema, std::size_t nrows, char* p) {
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

char* WriteV2Header(const Batch& batch, char* p) {
  return WriteV2HeaderParts(batch.schema, batch.rows.size(), p);
}

std::size_t V2HeaderSizeParts(const Schema& schema, std::size_t nrows) {
  std::size_t n = 4 + VarintSize(schema.num_fields());
  for (const Field& f : schema.fields()) {
    n += VarintSize(f.name.size()) + f.name.size() + 1;
  }
  return n + VarintSize(nrows);
}

std::size_t V2HeaderSize(const Batch& batch) {
  return V2HeaderSizeParts(batch.schema, batch.rows.size());
}

struct ColMeta {
  uint8_t mode = kColTyped;     ///< kColTyped unless a cell deviates
  std::size_t typed_bytes = 0;  ///< typed payload bytes (excl. bitmap)
  std::size_t tagged_bytes = 0; ///< tagged payload bytes (incl. tags)
};

struct V2Layout {
  std::vector<ColMeta> cols;
  std::size_t size = 0;  // exact byte size of the v2 buffer
};

/// One row-major pass (row-major matches the in-memory layout — each Row
/// is its own allocation) accumulating, per column, the size of both
/// candidate encodings and whether any cell deviates from the schema
/// type. A deviating cell forces per-value tags for its column.
V2Layout ComputeV2Layout(const Batch& batch) {
  const std::size_t nfields = batch.schema.num_fields();
  const std::size_t nrows = batch.rows.size();
  V2Layout layout;
  layout.cols.resize(nfields);
  ColMeta* const cols = layout.cols.data();
  for (const Row& row : batch.rows) {
    for (std::size_t c = 0; c < nfields; ++c) {
      const Value& v = row[c];
      ColMeta& m = cols[c];
      if (v.is_null()) {
        m.tagged_bytes += 1;
      } else if (v.is_string()) {
        if (batch.schema.field(c).type != DataType::kString) {
          m.mode = kColTagged;
        }
        const std::size_t len = v.str_unchecked().size();
        const std::size_t enc = VarintSize(len) + len;
        m.typed_bytes += enc;
        m.tagged_bytes += 1 + enc;
      } else {
        const DataType t =
            v.is_int64() ? DataType::kInt64 : DataType::kFloat64;
        if (batch.schema.field(c).type != t) m.mode = kColTagged;
        m.typed_bytes += 8;
        m.tagged_bytes += 9;
      }
    }
  }
  std::size_t n = V2HeaderSize(batch);
  for (const ColMeta& m : layout.cols) {
    n += 1;  // column mode byte
    n += m.mode == kColTyped ? (nrows + 7) / 8 + m.typed_bytes
                             : m.tagged_bytes;
  }
  n += 4;  // CRC32 footer
  layout.size = n;
  return layout;
}

/// Single-pass v2 serializer for all-fixed-width schemas (no string
/// fields): every column block is written at its worst-case
/// (all-non-null) offset, then blocks are compacted leftward when nulls
/// left gaps. Skips the sizing pre-pass entirely — the common
/// int/float-only shuffle rows serialize with one walk over the data.
/// Returns nullopt when a cell deviates from its schema type (the
/// two-pass generic path handles tagged columns).
std::optional<std::string> TrySerializeFixedV2(const Batch& batch) {
  const std::size_t nfields = batch.schema.num_fields();
  const std::size_t nrows = batch.rows.size();
  // 0 = kNull column, 1 = int64, 2 = float64.
  std::vector<uint8_t> ctype(nfields);
  for (std::size_t c = 0; c < nfields; ++c) {
    switch (batch.schema.field(c).type) {
      case DataType::kNull:
        ctype[c] = 0;
        break;
      case DataType::kInt64:
        ctype[c] = 1;
        break;
      case DataType::kFloat64:
        ctype[c] = 2;
        break;
      case DataType::kString:
        return std::nullopt;
    }
  }
  const std::size_t bitmap_len = (nrows + 7) / 8;
  std::size_t size_max = V2HeaderSize(batch) + 4;
  for (std::size_t c = 0; c < nfields; ++c) {
    size_max += 1 + bitmap_len + (ctype[c] == 0 ? 0 : 8 * nrows);
  }
  std::string out(size_max, '\0');
  char* const base = out.data();
  char* const cols_begin = WriteV2Header(batch, base);
  std::vector<char*> col_start(nfields);
  std::vector<char*> bitmap(nfields);
  std::vector<char*> cur(nfields);
  {
    char* p = cols_begin;
    for (std::size_t c = 0; c < nfields; ++c) {
      col_start[c] = p;
      *p++ = static_cast<char>(kColTyped);
      bitmap[c] = p;
      cur[c] = p + bitmap_len;
      p += bitmap_len + (ctype[c] == 0 ? 0 : 8 * nrows);
    }
  }
  for (std::size_t r = 0; r < nrows; ++r) {
    const Row& row = batch.rows[r];
    for (std::size_t c = 0; c < nfields; ++c) {
      const Value& v = row[c];
      if (v.is_null()) continue;
      uint64_t bits;
      if (ctype[c] == 1) {
        if (!v.is_int64()) return std::nullopt;
        bits = static_cast<uint64_t>(v.int64_unchecked());
      } else if (ctype[c] == 2) {
        if (!v.is_float64()) return std::nullopt;
        bits = std::bit_cast<uint64_t>(v.float64_unchecked());
      } else {
        return std::nullopt;  // non-null cell in a kNull column
      }
      bitmap[c][r >> 3] |= static_cast<char>(1u << (r & 7));
      char*& q = cur[c];
      std::memcpy(q, &bits, 8);
      q += 8;
    }
  }
  char* w = cols_begin;
  for (std::size_t c = 0; c < nfields; ++c) {
    const std::size_t block = 1 + bitmap_len +
                              static_cast<std::size_t>(
                                  cur[c] - (bitmap[c] + bitmap_len));
    if (w != col_start[c]) std::memmove(w, col_start[c], block);
    w += block;
  }
  const std::size_t total = static_cast<std::size_t>(w - base) + 4;
  const uint32_t crc = Crc32(std::string_view(base, total - 4));
  std::memcpy(w, &crc, 4);
  out.resize(total);
  return out;
}

/// Writes the exact `layout.size` bytes through per-column raw cursors:
/// one row-major data pass, no per-value append bookkeeping.
std::string SerializeBatchV2(const Batch& batch, const V2Layout& layout) {
  const std::size_t nfields = batch.schema.num_fields();
  const std::size_t nrows = batch.rows.size();
  std::string out(layout.size, '\0');
  char* const base = out.data();
  char* p = WriteV2Header(batch, base);
  // Lay out the column extents: mode byte, bitmap (typed only), payload.
  const std::size_t bitmap_len = (nrows + 7) / 8;
  std::vector<char*> bitmap(nfields);
  std::vector<char*> cur(nfields);
  std::vector<DataType> ftype(nfields);
  for (std::size_t c = 0; c < nfields; ++c) {
    const ColMeta& m = layout.cols[c];
    ftype[c] = batch.schema.field(c).type;
    *p++ = static_cast<char>(m.mode);
    if (m.mode == kColTyped) {
      bitmap[c] = p;
      cur[c] = p + bitmap_len;
      p += bitmap_len + m.typed_bytes;
    } else {
      cur[c] = p;
      p += m.tagged_bytes;
    }
  }
  for (std::size_t r = 0; r < nrows; ++r) {
    const Row& row = batch.rows[r];
    for (std::size_t c = 0; c < nfields; ++c) {
      const Value& v = row[c];
      char*& q = cur[c];
      if (layout.cols[c].mode == kColTyped) {
        if (v.is_null()) continue;
        bitmap[c][r >> 3] |= static_cast<char>(1u << (r & 7));
        if (ftype[c] == DataType::kString) {
          const std::string& s = v.str_unchecked();
          PutVarintAt(q, s.size());
          std::memcpy(q, s.data(), s.size());
          q += s.size();
        } else {
          // kInt64 / kFloat64 (typed kNull columns are all-null).
          const uint64_t bits =
              ftype[c] == DataType::kInt64
                  ? static_cast<uint64_t>(v.int64_unchecked())
                  : std::bit_cast<uint64_t>(v.float64_unchecked());
          std::memcpy(q, &bits, 8);
          q += 8;
        }
      } else if (v.is_null()) {
        *q++ = static_cast<char>(DataType::kNull);
      } else if (v.is_int64()) {
        *q++ = static_cast<char>(DataType::kInt64);
        const int64_t x = v.int64_unchecked();
        std::memcpy(q, &x, 8);
        q += 8;
      } else if (v.is_float64()) {
        *q++ = static_cast<char>(DataType::kFloat64);
        const double d = v.float64_unchecked();
        std::memcpy(q, &d, 8);
        q += 8;
      } else {
        *q++ = static_cast<char>(DataType::kString);
        const std::string& s = v.str_unchecked();
        PutVarintAt(q, s.size());
        std::memcpy(q, s.data(), s.size());
        q += s.size();
      }
    }
  }
  const uint32_t crc =
      Crc32(std::string_view(out.data(), layout.size - 4));
  std::memcpy(base + layout.size - 4, &crc, 4);
  return out;
}

}  // namespace

std::string SerializeBatchV1(const Batch& batch) {
  std::string out;
  out.reserve(SerializedBatchSizeV1(batch));
  PutU32(&out, kMagicV1);
  PutU32(&out, static_cast<uint32_t>(batch.schema.num_fields()));
  for (const Field& f : batch.schema.fields()) {
    PutStrV1(&out, f.name);
    PutU8(&out, static_cast<uint8_t>(f.type));
  }
  PutU64(&out, batch.rows.size());
  for (const Row& r : batch.rows) {
    PutU32(&out, static_cast<uint32_t>(r.size()));
    for (const Value& v : r) {
      PutU8(&out, static_cast<uint8_t>(v.type()));
      switch (v.type()) {
        case DataType::kNull:
          break;
        case DataType::kInt64:
          PutI64(&out, v.int64());
          break;
        case DataType::kFloat64:
          PutF64(&out, v.float64());
          break;
        case DataType::kString:
          PutStrV1(&out, v.str());
          break;
      }
    }
  }
  return out;
}

std::string SerializeBatch(const Batch& batch) {
  if (!UniformRows(batch)) return SerializeBatchV1(batch);
  if (std::optional<std::string> fast = TrySerializeFixedV2(batch)) {
    return *std::move(fast);
  }
  return SerializeBatchV2(batch, ComputeV2Layout(batch));
}

// GCC 12 reports a spurious -Wmaybe-uninitialized inside std::variant's
// move machinery when Value temporaries are pushed into the row vector
// (GCC PR 105593 family); the values are fully constructed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace {

Result<Batch> DeserializeV1(Reader rd) {
  SWIFT_ASSIGN_OR_RETURN(uint32_t nfields, rd.U32());
  // Every field needs at least 5 bytes (name length + type tag); reject
  // counts the buffer cannot possibly hold (corruption guard).
  if (nfields > rd.Remaining() / 5) {
    return Status::IOError("field count exceeds buffer");
  }
  std::vector<Field> fields;
  fields.reserve(nfields);
  for (uint32_t i = 0; i < nfields; ++i) {
    Field f;
    SWIFT_ASSIGN_OR_RETURN(std::string_view name, rd.StrV1());
    f.name = std::string(name);
    SWIFT_ASSIGN_OR_RETURN(uint8_t t, rd.U8());
    if (t > static_cast<uint8_t>(DataType::kString)) {
      return Status::IOError("bad field type tag");
    }
    f.type = static_cast<DataType>(t);
    fields.push_back(std::move(f));
  }
  Batch batch;
  batch.schema = Schema(std::move(fields));
  SWIFT_ASSIGN_OR_RETURN(uint64_t nrows, rd.U64());
  // Every row needs at least 4 bytes (its column count).
  if (nrows > rd.Remaining() / 4) {
    return Status::IOError("row count exceeds buffer");
  }
  batch.rows.reserve(nrows);
  for (uint64_t i = 0; i < nrows; ++i) {
    SWIFT_ASSIGN_OR_RETURN(uint32_t ncols, rd.U32());
    // Every value needs at least its 1-byte type tag.
    if (ncols > rd.Remaining()) {
      return Status::IOError("column count exceeds buffer");
    }
    Row row;
    row.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      SWIFT_ASSIGN_OR_RETURN(uint8_t tag, rd.U8());
      switch (static_cast<DataType>(tag)) {
        case DataType::kNull:
          row.push_back(Value::Null());
          break;
        case DataType::kInt64: {
          SWIFT_ASSIGN_OR_RETURN(uint64_t v, rd.U64());
          row.push_back(Value(static_cast<int64_t>(v)));
          break;
        }
        case DataType::kFloat64: {
          SWIFT_ASSIGN_OR_RETURN(uint64_t bits, rd.U64());
          double d;
          std::memcpy(&d, &bits, sizeof(d));
          row.push_back(Value(d));
          break;
        }
        case DataType::kString: {
          SWIFT_ASSIGN_OR_RETURN(std::string_view s, rd.StrV1());
          row.push_back(Value(std::string(s)));
          break;
        }
        default:
          return Status::IOError("bad value type tag");
      }
    }
    batch.rows.push_back(std::move(row));
  }
  if (!rd.AtEnd()) {
    return Status::IOError("trailing bytes after batch");
  }
  return batch;
}

Result<Batch> DeserializeV2(std::string_view bytes) {
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
    SWIFT_ASSIGN_OR_RETURN(std::string_view name, rd.StrV2());
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
  Batch batch;
  batch.schema = Schema(std::move(fields));
  // Pass 1: walk and validate every column's extent (tags, varints, and
  // bounds), recording a bitmap view and payload cursor per column. The
  // row-major fill below then runs on raw pointers with no per-value
  // bounds checks.
  enum ColKind : uint8_t {
    kColNull,        // typed kNull column: every cell NULL
    kColInt,         // typed int64, no nulls (bitmap all ones)
    kColIntNulls,    // typed int64 with nulls
    kColFloat,       // typed float64, no nulls
    kColFloatNulls,  // typed float64 with nulls
    kColStr,         // typed string
    kColTags,        // tagged (mixed) column
  };
  struct ColCursor {
    uint8_t kind = kColNull;
    const uint8_t* bitmap = nullptr;  // typed columns
    const char* p = nullptr;          // payload cursor
  };
  std::vector<ColCursor> cols(nfields);
  for (std::size_t c = 0; c < nfields; ++c) {
    ColCursor& col = cols[c];
    const DataType ft = batch.schema.field(c).type;
    SWIFT_ASSIGN_OR_RETURN(uint8_t mode, rd.U8());
    if (mode == kColTyped) {
      SWIFT_ASSIGN_OR_RETURN(std::string_view bitmap,
                             rd.Bytes((nrows + 7) / 8));
      col.bitmap = reinterpret_cast<const uint8_t*>(bitmap.data());
      std::size_t nonnull = 0;
      for (const char b : bitmap) {
        nonnull +=
            std::popcount(static_cast<unsigned>(static_cast<uint8_t>(b)));
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
          col.kind = kColNull;
          break;
        case DataType::kInt64:
        case DataType::kFloat64: {
          // One bounds check covers the whole fixed-width column.
          SWIFT_ASSIGN_OR_RETURN(std::string_view data,
                                 rd.Bytes(nonnull * 8));
          col.p = data.data();
          const bool full = nonnull == nrows;
          col.kind = ft == DataType::kInt64
                         ? (full ? kColInt : kColIntNulls)
                         : (full ? kColFloat : kColFloatNulls);
          break;
        }
        case DataType::kString: {
          SWIFT_ASSIGN_OR_RETURN(std::string_view first, rd.Bytes(0));
          col.p = first.data();
          for (std::size_t i = 0; i < nonnull; ++i) {
            SWIFT_RETURN_NOT_OK(rd.StrV2().status());
          }
          col.kind = kColStr;
          break;
        }
      }
    } else if (mode == kColTagged) {
      col.kind = kColTags;
      SWIFT_ASSIGN_OR_RETURN(std::string_view first, rd.Bytes(0));
      col.p = first.data();
      for (std::size_t r = 0; r < nrows; ++r) {
        SWIFT_ASSIGN_OR_RETURN(uint8_t tag, rd.U8());
        switch (static_cast<DataType>(tag)) {
          case DataType::kNull:
            break;
          case DataType::kInt64:
          case DataType::kFloat64:
            SWIFT_RETURN_NOT_OK(rd.U64().status());
            break;
          case DataType::kString:
            SWIFT_RETURN_NOT_OK(rd.StrV2().status());
            break;
          default:
            return Status::IOError("bad value type tag");
        }
      }
    } else {
      return Status::IOError("bad column mode");
    }
  }
  if (!rd.AtEnd()) {
    return Status::IOError("trailing bytes after batch");
  }
  // Pass 2: materialize rows in row-major order (each Row is its own
  // allocation, so this matches the write pattern of the output).
  const auto raw_varint = [](const char*& q) {
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      const uint8_t byte = static_cast<uint8_t>(*q++);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  };
  batch.rows.reserve(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    Row row;
    row.reserve(nfields);
    for (std::size_t c = 0; c < nfields; ++c) {
      ColCursor& col = cols[c];
      switch (col.kind) {
        case kColInt: {
          int64_t v;
          std::memcpy(&v, col.p, 8);
          col.p += 8;
          row.emplace_back(v);
          break;
        }
        case kColFloat: {
          double d;
          std::memcpy(&d, col.p, 8);
          col.p += 8;
          row.emplace_back(d);
          break;
        }
        case kColNull:
          row.emplace_back();  // NULL
          break;
        case kColIntNulls: {
          if (((col.bitmap[r >> 3] >> (r & 7)) & 1) == 0) {
            row.emplace_back();
            break;
          }
          int64_t v;
          std::memcpy(&v, col.p, 8);
          col.p += 8;
          row.emplace_back(v);
          break;
        }
        case kColFloatNulls: {
          if (((col.bitmap[r >> 3] >> (r & 7)) & 1) == 0) {
            row.emplace_back();
            break;
          }
          double d;
          std::memcpy(&d, col.p, 8);
          col.p += 8;
          row.emplace_back(d);
          break;
        }
        case kColStr: {
          if (((col.bitmap[r >> 3] >> (r & 7)) & 1) == 0) {
            row.emplace_back();
            break;
          }
          const std::size_t len = static_cast<std::size_t>(raw_varint(col.p));
          row.emplace_back(std::string(col.p, len));
          col.p += len;
          break;
        }
        case kColTags: {
          const DataType tag = static_cast<DataType>(*col.p++);
          switch (tag) {
            case DataType::kNull:
              row.emplace_back();
              break;
            case DataType::kInt64: {
              int64_t v;
              std::memcpy(&v, col.p, 8);
              col.p += 8;
              row.emplace_back(v);
              break;
            }
            case DataType::kFloat64: {
              double d;
              std::memcpy(&d, col.p, 8);
              col.p += 8;
              row.emplace_back(d);
              break;
            }
            case DataType::kString: {
              const std::size_t len =
                  static_cast<std::size_t>(raw_varint(col.p));
              row.emplace_back(std::string(col.p, len));
              col.p += len;
              break;
            }
          }
          break;
        }
      }
    }
    batch.rows.push_back(std::move(row));
  }
  return batch;
}

/// Columnar twin of DeserializeV2: identical CRC/header/bounds
/// validation, but each column decodes in one pass straight into
/// ColumnVector storage — a fixed-width column with no nulls is a single
/// memcpy off the wire, one with nulls scatters through the bitmap, and
/// a tagged (mixed) column lands in kBoxed. No Row/Value materialization
/// anywhere on the typed paths.
Result<ColumnBatch> DeserializeV2Columnar(std::string_view bytes) {
  if (bytes.size() < 8) {
    return Status::IOError("v2 batch buffer shorter than magic + CRC");
  }
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
  if (nfields64 > rd.Remaining() / 2) {
    return Status::IOError("field count exceeds buffer");
  }
  const std::size_t nfields = static_cast<std::size_t>(nfields64);
  std::vector<Field> fields;
  fields.reserve(nfields);
  for (std::size_t i = 0; i < nfields; ++i) {
    Field f;
    SWIFT_ASSIGN_OR_RETURN(std::string_view name, rd.StrV2());
    f.name = std::string(name);
    SWIFT_ASSIGN_OR_RETURN(uint8_t t, rd.U8());
    if (t > static_cast<uint8_t>(DataType::kString)) {
      return Status::IOError("bad field type tag");
    }
    f.type = static_cast<DataType>(t);
    fields.push_back(std::move(f));
  }
  SWIFT_ASSIGN_OR_RETURN(uint64_t nrows64, rd.Varint());
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
    if (mode == kColTyped) {
      SWIFT_ASSIGN_OR_RETURN(std::string_view bitmap,
                             rd.Bytes((nrows + 7) / 8));
      const uint8_t* bits = reinterpret_cast<const uint8_t*>(bitmap.data());
      std::size_t nonnull = 0;
      for (const char b : bitmap) {
        nonnull +=
            std::popcount(static_cast<unsigned>(static_cast<uint8_t>(b)));
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
              SWIFT_ASSIGN_OR_RETURN(std::string_view s, rd.StrV2());
              col.AppendString(s);
            } else {
              col.AppendNull();
            }
          }
          out.columns.push_back(std::move(col));
          break;
        }
      }
    } else if (mode == kColTagged) {
      ColumnVector col = ColumnVector::OfRep(ColumnRep::kBoxed);
      col.Reserve(nrows);
      for (std::size_t r = 0; r < nrows; ++r) {
        SWIFT_ASSIGN_OR_RETURN(uint8_t tag, rd.U8());
        switch (static_cast<DataType>(tag)) {
          case DataType::kNull:
            col.AppendNull();
            break;
          case DataType::kInt64: {
            SWIFT_ASSIGN_OR_RETURN(uint64_t v, rd.U64());
            col.Append(Value(static_cast<int64_t>(v)));
            break;
          }
          case DataType::kFloat64: {
            SWIFT_ASSIGN_OR_RETURN(uint64_t vbits, rd.U64());
            double d;
            std::memcpy(&d, &vbits, sizeof(d));
            col.Append(Value(d));
            break;
          }
          case DataType::kString: {
            SWIFT_ASSIGN_OR_RETURN(std::string_view s, rd.StrV2());
            col.Append(Value(std::string(s)));
            break;
          }
          default:
            return Status::IOError("bad value type tag");
        }
      }
      out.columns.push_back(std::move(col));
    } else {
      return Status::IOError("bad column mode");
    }
  }
  if (!rd.AtEnd()) {
    return Status::IOError("trailing bytes after batch");
  }
  return out;
}

/// True when every column's physical representation matches its schema
/// field type exactly — the precondition for serializing straight from
/// columnar storage (kBoxed and retyped columns go through the row
/// serializer so the bytes stay canonical).
bool ColumnsConform(const ColumnBatch& batch) {
  if (batch.columns.size() != batch.schema.num_fields()) return false;
  for (std::size_t c = 0; c < batch.columns.size(); ++c) {
    if (static_cast<uint8_t>(batch.columns[c].rep()) !=
        static_cast<uint8_t>(batch.schema.field(c).type)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<Batch> DeserializeBatch(std::string_view bytes) {
  if (IsCompressedFrame(bytes)) {
    // Lazy decompression: the compressed bytes are the shared zero-copy
    // buffer all the way from the writer; this decode is the one
    // accounted copy. The inner payload must be a plain v1/v2 batch —
    // a nested frame is rejected below (bad batch magic), so corrupt
    // input cannot recurse.
    SWIFT_ASSIGN_OR_RETURN(std::string raw, DecompressFrame(bytes));
    if (IsCompressedFrame(raw)) {
      return Status::IOError("nested compressed frame");
    }
    return DeserializeBatch(raw);
  }
  Reader rd(bytes);
  SWIFT_ASSIGN_OR_RETURN(uint32_t magic, rd.U32());
  if (magic == kMagicV1) return DeserializeV1(rd);
  if (magic == kMagicV2) return DeserializeV2(bytes);
  return Status::IOError("bad batch magic");
}

Result<ColumnBatch> DeserializeColumnBatch(std::string_view bytes) {
  if (IsCompressedFrame(bytes)) {
    SWIFT_ASSIGN_OR_RETURN(std::string raw, DecompressFrame(bytes));
    if (IsCompressedFrame(raw)) {
      return Status::IOError("nested compressed frame");
    }
    return DeserializeColumnBatch(raw);
  }
  Reader rd(bytes);
  SWIFT_ASSIGN_OR_RETURN(uint32_t magic, rd.U32());
  if (magic == kMagicV2) return DeserializeV2Columnar(bytes);
  if (magic == kMagicV1) {
    // v1 is row-shaped on the wire; decode rows, then convert (a ragged
    // v1 batch cannot be represented columnar and errors here).
    SWIFT_ASSIGN_OR_RETURN(Batch rows, DeserializeV1(rd));
    return ToColumnBatch(rows);
  }
  return Status::IOError("bad batch magic");
}

std::string SerializeColumnBatch(const ColumnBatch& batch) {
  if (!ColumnsConform(batch)) return SerializeBatch(ToRowBatch(batch));
  const std::size_t nfields = batch.schema.num_fields();
  const std::size_t nrows = batch.num_rows();
  const std::size_t bitmap_len = (nrows + 7) / 8;
  const uint32_t* sel = batch.selection ? batch.selection->data() : nullptr;
  // Sizing pass: conforming columns are always kColTyped on the wire, so
  // the size is header + per column (mode byte + bitmap + payload) + CRC.
  std::size_t total = V2HeaderSizeParts(batch.schema, nrows) + 4;
  for (std::size_t c = 0; c < nfields; ++c) {
    const ColumnVector& col = batch.columns[c];
    total += 1 + bitmap_len;
    switch (col.rep()) {
      case ColumnRep::kNull:
      case ColumnRep::kBoxed:  // kBoxed excluded by ColumnsConform
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
  char* p = WriteV2HeaderParts(batch.schema, nrows, base);
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
      case ColumnRep::kBoxed:
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

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::size_t SerializedBatchSizeV1(const Batch& batch) {
  std::size_t n = 4 + 4;
  for (const Field& f : batch.schema.fields()) n += 4 + f.name.size() + 1;
  n += 8;
  for (const Row& r : batch.rows) {
    n += 4;
    for (const Value& v : r) {
      n += 1;
      switch (v.type()) {
        case DataType::kNull:
          break;
        case DataType::kInt64:
        case DataType::kFloat64:
          n += 8;
          break;
        case DataType::kString:
          n += 4 + v.str().size();
          break;
      }
    }
  }
  return n;
}

std::size_t SerializedBatchSize(const Batch& batch) {
  if (!UniformRows(batch)) return SerializedBatchSizeV1(batch);
  return ComputeV2Layout(batch).size;
}

}  // namespace swift
