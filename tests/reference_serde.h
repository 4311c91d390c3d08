// A deliberately naive encoder for the shuffle wire format: the oracle
// the serde suites pin SerializeColumnBatch against. It walks a row
// Batch one column at a time with string appends — no size pre-pass, no
// fast paths, no ColumnVector — so it shares no code with the encoder it
// checks (only the CRC32 routine). The format ("SWF2"):
//
//   u32 magic 0x53574632
//   varint nfields, then per field: varint name length, name, u8 type
//   varint nrows
//   per column: u8 mode, then
//     mode 0 (typed):  (nrows+7)/8 bitmap bytes, bit r set iff row r is
//                      non-null, then the non-null values in row order
//     mode 1 (tagged): per row a u8 type tag, then that value. Retired:
//                      the engine never writes it and its decoder
//                      rejects it; the encoder here still does, so tests
//                      can build such a buffer with a valid CRC.
//   u32 CRC32 of every preceding byte
//
// Integers are little-endian. A value is nothing for NULL, 8 bytes for
// int64 and float64 (the float's bits as they are, so -0.0 and NaN
// survive), and a varint length plus the bytes for a string. A column is
// typed iff every non-null cell has the field type.

#ifndef SWIFT_TESTS_REFERENCE_SERDE_H_
#define SWIFT_TESTS_REFERENCE_SERDE_H_

#include <bit>
#include <string>

#include "common/crc32.h"
#include "exec/schema.h"

namespace swift {
namespace ref {

inline void AppendLittleEndian(std::string* out, uint64_t v, int nbytes) {
  for (int i = 0; i < nbytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

inline void AppendValue(std::string* out, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kInt64:
      AppendLittleEndian(out, static_cast<uint64_t>(v.int64()), 8);
      break;
    case DataType::kFloat64:
      AppendLittleEndian(out, std::bit_cast<uint64_t>(v.float64()), 8);
      break;
    case DataType::kString:
      AppendVarint(out, v.str().size());
      *out += v.str();
      break;
  }
}

/// Encodes a uniform-width row batch.
inline std::string Serialize(const Batch& batch) {
  std::string out;
  AppendLittleEndian(&out, 0x53574632, 4);
  AppendVarint(&out, batch.schema.num_fields());
  for (const Field& f : batch.schema.fields()) {
    AppendVarint(&out, f.name.size());
    out += f.name;
    out.push_back(static_cast<char>(f.type));
  }
  AppendVarint(&out, batch.rows.size());
  for (std::size_t c = 0; c < batch.schema.num_fields(); ++c) {
    const DataType type = batch.schema.field(c).type;
    bool typed = true;
    for (const Row& row : batch.rows) {
      if (!row[c].is_null() && row[c].type() != type) typed = false;
    }
    if (typed) {
      out.push_back(0);
      std::string bitmap((batch.rows.size() + 7) / 8, '\0');
      std::string values;
      for (std::size_t r = 0; r < batch.rows.size(); ++r) {
        if (batch.rows[r][c].is_null()) continue;
        bitmap[r / 8] = static_cast<char>(bitmap[r / 8] | (1 << (r % 8)));
        AppendValue(&values, batch.rows[r][c]);
      }
      out += bitmap;
      out += values;
    } else {
      out.push_back(1);
      for (const Row& row : batch.rows) {
        out.push_back(static_cast<char>(row[c].type()));
        AppendValue(&out, row[c]);
      }
    }
  }
  AppendLittleEndian(&out, Crc32(out), 4);
  return out;
}

}  // namespace ref
}  // namespace swift

#endif  // SWIFT_TESTS_REFERENCE_SERDE_H_
