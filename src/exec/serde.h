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
/// its selection vector. Every column is written straight from its
/// contiguous storage in the one column mode (typed: bitmap + values of
/// the field's type). Aborts (SWIFT_CHECK) if the column count differs
/// from the schema width or a column's rep is neither its field's type
/// nor kNull: Bind types every column, so either is a program bug.
std::string SerializeColumnBatch(const ColumnBatch& batch);

/// \brief Decodes a shuffle buffer straight into columnar form: the one
/// decoder. Typed fixed-width columns with no nulls land with a single
/// memcpy and columns with nulls scatter through the validity bitmap.
/// The CRC32 footer is verified before any decoded count is trusted;
/// truncated, corrupt or foreign buffers (any magic but "SWF2") return
/// IOError, and so does a column in any mode but typed (the retired
/// tagged mode 1 included), even under a valid CRC. Buffers wrapped in a
/// compressed frame (common/compress.h, "SWZ1" magic — produced by the
/// shuffle writer for large Remote/barrier edges) are CRC-checked and
/// decompressed first, then decoded as the inner v2 payload; nested
/// frames are rejected. Readers never need to know what the writer
/// negotiated.
Result<ColumnBatch> DeserializeColumnBatch(std::string_view bytes);

/// \brief SerializeColumnBatch(ToColumnBatch(batch)). A batch
/// ToColumnBatch rejects (a ragged row, or a cell that cannot take its
/// field's type) is a caller bug and aborts with its message.
std::string SerializeBatch(const Batch& batch);

/// \brief ToRowBatch(DeserializeColumnBatch(bytes)).
Result<Batch> DeserializeBatch(std::string_view bytes);

}  // namespace swift

#endif  // SWIFT_EXEC_SERDE_H_
