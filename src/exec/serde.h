#ifndef SWIFT_EXEC_SERDE_H_
#define SWIFT_EXEC_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "exec/column_batch.h"
#include "exec/schema.h"

namespace swift {

/// \brief Serializes a batch to the current shuffle wire format (v2:
/// schema written once, per-column null bitmaps instead of per-value
/// type tags, varint lengths/counts, CRC32 footer). Batches whose rows
/// do not all match the schema width fall back to the self-describing
/// v1 format; both carry a version magic and both are accepted by
/// DeserializeBatch forever (spill files and recovery re-sends never
/// need rewriting).
std::string SerializeBatch(const Batch& batch);

/// \brief Serializes in the legacy v1 format (a type tag per value and
/// a column count per row). Kept for ragged batches, version-dispatch
/// tests, and the serde_v1_vs_v2 benchmarks.
std::string SerializeBatchV1(const Batch& batch);

/// \brief Inverse of SerializeBatch{,V1}; dispatches on the version
/// magic and rejects truncated/corrupt buffers (v2 verifies its CRC32
/// footer before trusting any decoded count). Buffers wrapped in a
/// compressed frame (common/compress.h, "SWZ1" magic — produced by the
/// shuffle writer for large Remote/barrier edges) are CRC-checked and
/// decompressed here first, then decoded as the v1/v2 payload they
/// carry; nested frames are rejected. Uncompressed v1/v2 buffers pass
/// through untouched, so readers never need to know what the writer
/// negotiated.
Result<Batch> DeserializeBatch(std::string_view bytes);

/// \brief Decodes a shuffle buffer straight into columnar form. For v2
/// typed columns this is the near-memcpy path: fixed-width no-null
/// columns land with a single memcpy into contiguous typed storage and
/// no per-value Value boxing anywhere (columns with nulls scatter
/// through the validity bitmap; tagged/mixed columns decode to kBoxed).
/// v1 buffers decode through DeserializeBatch and convert — ragged v1
/// batches (which cannot be columnar) return the conversion error.
/// Verifies the same CRC/bounds as DeserializeBatch.
Result<ColumnBatch> DeserializeColumnBatch(std::string_view bytes);

/// \brief Encodes a ColumnBatch, gathering through its selection
/// vector. Byte-identical to SerializeBatch(ToRowBatch(batch)) — the
/// shuffle wire format does not change — but writes typed columns
/// straight from their contiguous storage. Columns whose representation
/// deviates from the schema (kBoxed, retyped) fall back through the row
/// serializer.
std::string SerializeColumnBatch(const ColumnBatch& batch);

/// \brief Serialized size of SerializeBatch without building the buffer
/// (exact-size preallocation and Cache Worker memory accounting).
std::size_t SerializedBatchSize(const Batch& batch);

/// \brief Serialized size of SerializeBatchV1 (exact).
std::size_t SerializedBatchSizeV1(const Batch& batch);

}  // namespace swift

#endif  // SWIFT_EXEC_SERDE_H_
