#ifndef SWIFT_EXEC_SERDE_H_
#define SWIFT_EXEC_SERDE_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "exec/column_batch.h"
#include "exec/schema.h"

namespace swift {

/// \brief Encodes a ColumnBatch in the shuffle wire format ("SWF2":
/// schema written once, per-column null bitmaps instead of per-value
/// type tags, varint lengths/counts, CRC32 footer), gathering through
/// its selection vector. A column whose rep is its field type's (or
/// kNull) is written straight from its contiguous storage; any other
/// column (kBoxed, or retyped) is written cell by cell, typed iff every
/// selected non-null cell has the field type and with per-value tags
/// otherwise. Aborts (SWIFT_CHECK) if the column count differs from the
/// schema width.
std::string SerializeColumnBatch(const ColumnBatch& batch);

/// \brief Decodes a shuffle buffer straight into columnar form: the one
/// decoder. Typed fixed-width columns with no nulls land with a single
/// memcpy, columns with nulls scatter through the validity bitmap, and
/// tagged columns decode to kBoxed. The CRC32 footer is verified before
/// any decoded count is trusted; truncated, corrupt or foreign buffers
/// (any magic but "SWF2") return IOError. Buffers wrapped in a
/// compressed frame (common/compress.h, "SWZ1" magic — produced by the
/// shuffle writer for large Remote/barrier edges) are CRC-checked and
/// decompressed first, then decoded as the inner v2 payload; nested
/// frames are rejected. Readers never need to know what the writer
/// negotiated.
Result<ColumnBatch> DeserializeColumnBatch(std::string_view bytes);

/// \brief SerializeColumnBatch(ToColumnBatch(batch)). A ragged batch (a
/// row whose cell count differs from the schema width) is a caller bug
/// and aborts with ToColumnBatch's message.
std::string SerializeBatch(const Batch& batch);

/// \brief ToRowBatch(DeserializeColumnBatch(bytes)).
Result<Batch> DeserializeBatch(std::string_view bytes);

}  // namespace swift

#endif  // SWIFT_EXEC_SERDE_H_
