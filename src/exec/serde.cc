#include "exec/serde.h"

#include <algorithm>
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
  /// Steps over `count` strings, bounds-checking each length prefix and
  /// payload: the validation pass of a string column.
  Status SkipStrings(std::size_t count) {
    const std::size_t size = buf_.size();
    for (std::size_t k = 0; k < count; ++k) {
      if (pos_ < size && static_cast<uint8_t>(buf_[pos_]) < 0x80) {
        const std::size_t len = static_cast<uint8_t>(buf_[pos_++]);
        if (len > size - pos_) return Truncated();
        pos_ += len;
        continue;
      }
      SWIFT_ASSIGN_OR_RETURN(uint64_t len, Varint());
      if (len > size - pos_) return Truncated();
      pos_ += static_cast<std::size_t>(len);
    }
    return Status::OK();
  }
  bool AtEnd() const { return pos_ == buf_.size(); }
  std::size_t Remaining() const { return buf_.size() - pos_; }
  const char* Here() const { return buf_.data() + pos_; }

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

/// A column's rep is its field's type (so kNull only under a kNull
/// field): the invariant every operator keeps, checked at each hop.
bool Conforms(const ColumnVector& col, DataType field_type) {
  return static_cast<uint8_t>(col.rep()) == static_cast<uint8_t>(field_type);
}


// ---- Bitmaps ----------------------------------------------------------

// Bits set in a 64-bit word, without the libgcc call a plain
// std::popcount compiles to when the target lacks POPCNT.
inline std::size_t Popcount64(uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<std::size_t>((x * 0x0101010101010101ull) >> 56);
}

// Set bits among bits [start, start+len) of `bits`, a word at a time.
std::size_t CountBits(const uint8_t* bits, std::size_t start,
                      std::size_t len) {
  std::size_t n = 0;
  for (; len > 0 && (start & 7) != 0; ++start, --len) {
    n += (bits[start >> 3] >> (start & 7)) & 1u;
  }
  const uint8_t* p = bits + (start >> 3);
  for (; len >= 64; p += 8, len -= 64) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    n += Popcount64(w);
  }
  for (; len >= 8; ++p, len -= 8) n += Popcount64(*p);
  if (len > 0) n += Popcount64(*p & ((1u << len) - 1));
  return n;
}

// Bits [start, start+len) of `bits` as a bitmap of their own, bit 0
// first; the padding bits of its last byte are zero.
std::vector<uint8_t> CopyBits(const uint8_t* bits, std::size_t start,
                              std::size_t len) {
  const std::size_t nbytes = (len + 7) / 8;
  std::vector<uint8_t> out(nbytes);
  if (nbytes == 0) return out;
  const uint8_t* src = bits + (start >> 3);
  const unsigned shift = start & 7;
  if (shift == 0) {
    std::memcpy(out.data(), src, nbytes);
  } else {
    for (std::size_t i = 0; i < nbytes; ++i) {
      unsigned byte = src[i] >> shift;
      // The next source byte holds this byte's high bits, when any of
      // them is still inside the range.
      if (8 * i + 8 - shift < len) byte |= src[i + 1] << (8 - shift);
      out[i] = static_cast<uint8_t>(byte);
    }
  }
  if ((len & 7) != 0) {
    out[nbytes - 1] &= static_cast<uint8_t>((1u << (len & 7)) - 1);
  }
  return out;
}

// Sets bits [start, start+len) of `bitmap`: whole bytes by memset.
void SetBitRun(char* bitmap, std::size_t start, std::size_t len) {
  if (len == 0) return;
  uint8_t* b = reinterpret_cast<uint8_t*>(bitmap);
  const std::size_t end = start + len;
  const std::size_t first_full = (start + 7) / 8;
  const std::size_t last_full = end / 8;  // exclusive
  if (first_full > last_full) {
    // The whole run sits inside one byte.
    b[start >> 3] |= static_cast<uint8_t>(((1u << len) - 1) << (start & 7));
    return;
  }
  if ((start & 7) != 0) {
    b[start >> 3] |= static_cast<uint8_t>(0xFFu << (start & 7));
  }
  std::memset(b + first_full, 0xFF, last_full - first_full);
  if ((end & 7) != 0) {
    b[last_full] |= static_cast<uint8_t>((1u << (end & 7)) - 1);
  }
}

inline bool BitAt(const uint8_t* bits, std::size_t i) {
  return (bits[i >> 3] >> (i & 7)) & 1u;
}

inline void SetBit(char* bitmap, std::size_t i) {
  bitmap[i >> 3] = static_cast<char>(bitmap[i >> 3] | (1u << (i & 7)));
}

// ---- Encoder ----------------------------------------------------------

// Payload bytes (past mode byte and bitmap) of `piece`'s cells of `col`.
std::size_t PiecePayloadSize(const ColumnVector& col, const WirePiece& piece) {
  const uint32_t* rows = piece.rows;
  switch (col.rep()) {
    case ColumnRep::kNull:
      return 0;
    case ColumnRep::kInt64:
    case ColumnRep::kFloat64: {
      std::size_t nonnull = piece.n;
      if (col.has_nulls()) {
        for (std::size_t k = 0; k < piece.n; ++k) {
          nonnull -= col.IsNull(rows ? rows[k] : k) ? 1 : 0;
        }
      }
      return 8 * nonnull;
    }
    case ColumnRep::kString: {
      std::size_t total = 0;
      const bool nulls = col.has_nulls();
      for (std::size_t k = 0; k < piece.n; ++k) {
        const std::size_t i = rows ? rows[k] : k;
        if (nulls && col.IsNull(i)) continue;
        const std::size_t len = col.StrAt(i).size();
        total += VarintSize(len) + len;
      }
      return total;
    }
  }
  return 0;
}

// Writes the piece's cells of `col` at global rows [at, at+n): bitmap
// bits into `bitmap` (pre-zeroed) and values from `p` on; returns the
// end of the values written.
char* EncodePiece(const ColumnVector& col, const WirePiece& piece,
                  std::size_t at, char* bitmap, char* p) {
  const uint32_t* rows = piece.rows;
  const std::size_t n = piece.n;
  const bool nulls = col.has_nulls();
  if (!nulls && col.rep() != ColumnRep::kNull) SetBitRun(bitmap, at, n);
  switch (col.rep()) {
    case ColumnRep::kNull:
      return p;  // all-zero bits, no payload
    case ColumnRep::kInt64:
    case ColumnRep::kFloat64: {
      const char* data =
          col.rep() == ColumnRep::kInt64
              ? reinterpret_cast<const char*>(col.Int64Data())
              : reinterpret_cast<const char*>(col.Float64Data());
      if (!nulls) {
        if (rows == nullptr) {
          // Contiguous host storage is already the wire encoding.
          if (n > 0) std::memcpy(p, data, 8 * n);
          return p + 8 * n;
        }
        for (std::size_t k = 0; k < n; ++k) {
          std::memcpy(p + 8 * k, data + 8 * std::size_t{rows[k]}, 8);
        }
        return p + 8 * n;
      }
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = rows ? rows[k] : k;
        if (col.IsNull(i)) continue;
        SetBit(bitmap, at + k);
        std::memcpy(p, data + 8 * i, 8);
        p += 8;
      }
      return p;
    }
    case ColumnRep::kString: {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = rows ? rows[k] : k;
        if (nulls) {
          if (col.IsNull(i)) continue;
          SetBit(bitmap, at + k);
        }
        const std::string_view s = col.StrAt(i);
        PutVarintAt(p, s.size());
        std::memcpy(p, s.data(), s.size());
        p += s.size();
      }
      return p;
    }
  }
  return p;
}

// ---- Decoder ----------------------------------------------------------

// A varint the validation pass already bounds-checked.
inline uint64_t VarintUnchecked(const char*& p) {
  uint64_t v = static_cast<uint8_t>(*p++);
  if (v < 0x80) return v;
  v &= 0x7F;
  for (int shift = 7;; shift += 7) {
    const uint8_t byte = static_cast<uint8_t>(*p++);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
}

}  // namespace

std::string SerializePieces(const Schema& schema,
                            const std::vector<WirePiece>& pieces) {
  const std::size_t nfields = schema.num_fields();
  std::size_t nrows = 0;
  for (const WirePiece& piece : pieces) {
    SWIFT_CHECK(piece.batch->columns.size() == nfields)
        << "batch has " << piece.batch->columns.size()
        << " columns, schema has " << nfields;
    nrows += piece.n;
  }
  const std::size_t bitmap_len = (nrows + 7) / 8;
  // Sizing pass: header + per column (mode byte + bitmap + payload) +
  // CRC.
  std::size_t total =
      HeaderSize(schema, nrows) + 4 + nfields * (1 + bitmap_len);
  for (std::size_t c = 0; c < nfields; ++c) {
    const Field& field = schema.field(c);
    for (const WirePiece& piece : pieces) {
      const ColumnVector& col = piece.batch->columns[c];
      SWIFT_CHECK(Conforms(col, field.type))
          << "column '" << field.name << "' holds "
          << DataTypeToString(static_cast<DataType>(col.rep()))
          << " cells under a " << DataTypeToString(field.type) << " field";
      total += PiecePayloadSize(col, piece);
    }
  }
  std::string out(total, '\0');
  char* const base = out.data();
  char* p = WriteHeader(schema, nrows, base);
  for (std::size_t c = 0; c < nfields; ++c) {
    *p++ = static_cast<char>(kColTyped);
    char* const bitmap = p;  // pre-zeroed by the string fill
    p += bitmap_len;
    std::size_t at = 0;
    for (const WirePiece& piece : pieces) {
      p = EncodePiece(piece.batch->columns[c], piece, at, bitmap, p);
      at += piece.n;
    }
  }
  const uint32_t crc = Crc32(std::string_view(base, total - 4));
  std::memcpy(base + total - 4, &crc, 4);
  return out;
}

std::string SerializeColumnBatch(const ColumnBatch& batch) {
  WirePiece piece;
  piece.batch = &batch;
  piece.rows = batch.selection ? batch.selection->data() : nullptr;
  piece.n = batch.num_rows();
  return SerializePieces(batch.schema, {piece});
}

Result<WirePayload> WirePayload::Open(std::string_view bytes,
                                      const Schema* expected) {
  WirePayload w;
  if (IsCompressedFrame(bytes)) {
    // The compressed bytes are the shared zero-copy buffer all the way
    // from the writer; this decompression is the one accounted copy.
    // The inner payload must be a plain v2 batch — a nested frame is
    // rejected here, so corrupt input cannot recurse.
    SWIFT_ASSIGN_OR_RETURN(std::string raw, DecompressFrame(bytes));
    if (IsCompressedFrame(raw)) {
      return Status::IOError("nested compressed frame");
    }
    w.owner_ = ShuffleBuffer(std::move(raw));
    w.bytes_ = w.owner_.view();
  } else {
    w.bytes_ = bytes;
  }
  SWIFT_RETURN_NOT_OK(w.Validate(expected));
  return w;
}

Result<WirePayload> WirePayload::Open(ShuffleBuffer buffer,
                                      const Schema* expected) {
  SWIFT_ASSIGN_OR_RETURN(WirePayload w, Open(buffer.view(), expected));
  if (!w.owner_.valid()) w.owner_ = std::move(buffer);
  return w;
}

Status WirePayload::Validate(const Schema* expected) {
  Reader magic_rd(bytes_);
  SWIFT_ASSIGN_OR_RETURN(uint32_t magic, magic_rd.U32());
  if (magic != kMagicV2) return Status::IOError("bad batch magic");
  if (bytes_.size() < 8) {
    return Status::IOError("v2 batch buffer shorter than magic + CRC");
  }
  // Verify the footer before trusting any decoded count: corruption is
  // caught here, so the bounds checks below only defend against the
  // astronomically unlikely CRC collision (and hand-made payloads).
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes_.data() + bytes_.size() - 4, 4);
  const uint32_t actual_crc = Crc32(bytes_.substr(0, bytes_.size() - 4));
  if (stored_crc != actual_crc) {
    return Status::IOError(
        StrFormat("batch CRC32 mismatch (stored %08x, computed %08x)",
                  stored_crc, actual_crc));
  }
  Reader rd(bytes_.substr(4, bytes_.size() - 8));  // body: magic..footer
  SWIFT_ASSIGN_OR_RETURN(uint64_t nfields64, rd.Varint());
  // Every field needs at least 2 bytes (name length + type tag).
  if (nfields64 > rd.Remaining() / 2) {
    return Status::IOError("field count exceeds buffer");
  }
  const std::size_t nfields = static_cast<std::size_t>(nfields64);
  if (expected != nullptr && nfields != expected->num_fields()) {
    return Status::IOError(
        StrFormat("payload has %zu fields, its consumer expects %zu", nfields,
                  expected->num_fields()));
  }
  std::vector<Field> fields;
  if (expected == nullptr) fields.reserve(nfields);
  for (std::size_t i = 0; i < nfields; ++i) {
    SWIFT_ASSIGN_OR_RETURN(std::string_view name, rd.Str());
    SWIFT_ASSIGN_OR_RETURN(uint8_t t, rd.U8());
    if (t > static_cast<uint8_t>(DataType::kString)) {
      return Status::IOError("bad field type tag");
    }
    const DataType type = static_cast<DataType>(t);
    if (expected == nullptr) {
      fields.push_back(Field{std::string(name), type});
      continue;
    }
    const Field& want = expected->field(i);
    if (name != want.name || type != want.type) {
      const std::string got =
          std::string(name) + ":" + std::string(DataTypeToString(type));
      const std::string wanted =
          want.name + ":" + std::string(DataTypeToString(want.type));
      return Status::IOError(
          StrFormat("payload field %zu is %s, its consumer expects %s", i,
                    got.c_str(), wanted.c_str()));
    }
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
  num_rows_ = static_cast<std::size_t>(nrows64);
  schema_ = expected != nullptr ? *expected : Schema(std::move(fields));
  columns_.resize(nfields);
  for (std::size_t c = 0; c < nfields; ++c) {
    Column& col = columns_[c];
    col.type = schema_.field(c).type;
    SWIFT_ASSIGN_OR_RETURN(uint8_t mode, rd.U8());
    if (mode != kColTyped) {
      return Status::IOError(StrFormat("bad column mode %u in column %zu",
                                       static_cast<unsigned>(mode), c));
    }
    SWIFT_ASSIGN_OR_RETURN(std::string_view bitmap,
                           rd.Bytes((num_rows_ + 7) / 8));
    col.bits = reinterpret_cast<const uint8_t*>(bitmap.data());
    if ((num_rows_ & 7) != 0 && !bitmap.empty() &&
        (static_cast<uint8_t>(bitmap.back()) >> (num_rows_ & 7)) != 0) {
      return Status::IOError("bitmap padding bits set");
    }
    const std::size_t nonnull = CountBits(col.bits, 0, num_rows_);
    col.values = rd.Here();
    switch (col.type) {
      case DataType::kNull:
        if (nonnull != 0) {
          return Status::IOError("non-null cell in null-typed column");
        }
        break;
      case DataType::kInt64:
      case DataType::kFloat64:
        // One bounds check covers the whole fixed-width column.
        SWIFT_RETURN_NOT_OK(rd.Bytes(nonnull * 8).status());
        break;
      case DataType::kString:
        SWIFT_RETURN_NOT_OK(rd.SkipStrings(nonnull));
        break;
    }
  }
  if (!rd.AtEnd()) {
    return Status::IOError("trailing bytes after batch");
  }
  return Status::OK();
}

ColumnBatch WirePayload::Next(std::size_t max_rows) {
  const std::size_t start = row_;
  const std::size_t len = std::min(max_rows, rows_left());
  row_ += len;
  ColumnBatch out;
  out.schema = schema_;
  out.physical_rows = len;
  out.columns.reserve(columns_.size());
  for (Column& c : columns_) {
    if (c.type == DataType::kNull) {
      out.columns.push_back(ColumnVector::MakeNull(len));
      continue;
    }
    const std::size_t nonnull = CountBits(c.bits, start, len);
    ColumnVector col;
    if (c.type == DataType::kString) {
      // Pass 1 over the (validated) lengths sizes the heap exactly;
      // pass 2 fills offsets and heap.
      const char* q = c.values;
      std::size_t heap = 0;
      for (std::size_t k = 0; k < nonnull; ++k) {
        const uint64_t l = VarintUnchecked(q);
        heap += l;
        q += l;
      }
      col.ResizeString(len, heap);
      uint64_t* off = col.MutableStringOffsets();
      char* h = col.MutableHeap();
      q = c.values;
      uint64_t at = 0;
      for (std::size_t r = 0; r < len; ++r) {
        if (nonnull == len || BitAt(c.bits, start + r)) {
          const uint64_t l = VarintUnchecked(q);
          std::memcpy(h + at, q, l);
          q += l;
          at += l;
        }
        off[r + 1] = at;
      }
      c.values = q;
    } else {
      const ColumnRep rep = c.type == DataType::kInt64 ? ColumnRep::kInt64
                                                       : ColumnRep::kFloat64;
      col.ResizeFixedWidth(rep, len);
      char* dst = rep == ColumnRep::kInt64
                      ? reinterpret_cast<char*>(col.MutableInt64Data())
                      : reinterpret_cast<char*>(col.MutableFloat64Data());
      if (nonnull == len) {
        // A zero-row column has no storage: memcpy from null is UB.
        if (len > 0) std::memcpy(dst, c.values, 8 * len);
      } else {
        const char* src = c.values;
        for (std::size_t r = 0; r < len; ++r) {
          if (BitAt(c.bits, start + r)) {
            std::memcpy(dst + 8 * r, src, 8);
            src += 8;
          }
        }
      }
      c.values += 8 * nonnull;
    }
    if (nonnull != len) {
      col.SetValidity(CopyBits(c.bits, start, len), len - nonnull);
    }
    out.columns.push_back(std::move(col));
  }
  return out;
}

Result<ColumnBatch> DeserializeColumnBatch(std::string_view bytes) {
  SWIFT_ASSIGN_OR_RETURN(WirePayload payload, WirePayload::Open(bytes));
  return payload.Next(payload.num_rows());
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
