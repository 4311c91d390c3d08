#ifndef SWIFT_EXEC_SERDE_H_
#define SWIFT_EXEC_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "exec/column_batch.h"
#include "exec/schema.h"
#include "shuffle/shuffle_buffer.h"

namespace swift {

/// \brief `n` rows of `batch` taken at the physical row indices `rows`
/// (nullptr: physical rows 0..n-1 in order): one run of a partition's
/// rows as the shuffle sink holds them.
struct WirePiece {
  const ColumnBatch* batch = nullptr;
  const uint32_t* rows = nullptr;
  std::size_t n = 0;
};

/// \brief The gather encoder: writes one shuffle payload in the wire
/// format ("SWF2": schema written once, per-column null bitmaps instead
/// of per-value type tags, varint lengths/counts, CRC-32C footer)
/// holding the rows of `pieces` in order, straight from their columns.
/// The output is sized exactly in one pass and filled in a second: a
/// NULL-free piece sets its bitmap run whole and gathers its values in
/// bulk (one memcpy when its rows are contiguous). The bytes equal
/// SerializeColumnBatch of the pieces concatenated. Aborts
/// (SWIFT_CHECK) if a piece's column count differs from the schema
/// width or a column's rep is not its field's type: Bind types every
/// column and a column keeps its rep, so either is a program bug.
std::string SerializePieces(const Schema& schema,
                            const std::vector<WirePiece>& pieces);

/// \brief SerializePieces of the one piece that is `batch`'s logical
/// rows (its selection, when it has one).
std::string SerializeColumnBatch(const ColumnBatch& batch);

/// \brief A shuffle payload validated in full, then decoded into
/// columnar morsels in row order.
///
/// Open checks everything before any row is decoded: the CRC-32C footer
/// first (so no count is trusted before it), then the header, every
/// column's mode byte, bitmap bounds and padding, value bounds and each
/// string's length. Truncated, corrupt or foreign buffers (any magic
/// but "SWF2") are IOError, and so is a column in any mode but typed
/// (the retired tagged mode 1 included), even under a valid CRC. A
/// payload wrapped in a compressed frame (common/compress.h, "SWZ1"
/// magic — produced by the shuffle writer for large Remote/barrier
/// edges) is CRC-checked and decompressed once, here, and its inner
/// payload validated; nested frames are rejected. After Open, Next
/// cannot fail: each call decodes the next rows straight off the wire
/// (a NULL-free fixed-width column lands with one memcpy, strings in a
/// length pass and an exactly sized fill).
///
/// A consumer that knows the schema it reads passes it as `expected`:
/// the header must then carry exactly its fields (count, names and type
/// tags, in order) or Open is IOError, and every decoded morsel carries
/// `*expected` itself (a shared value, not rebuilt per payload). Without
/// it, the payload's own header schema is used.
class WirePayload {
 public:
  WirePayload() = default;

  /// \brief Validates `bytes`, which must outlive the payload.
  static Result<WirePayload> Open(std::string_view bytes,
                                  const Schema* expected = nullptr);

  /// \brief Validates `buffer` and shares its ownership.
  static Result<WirePayload> Open(ShuffleBuffer buffer,
                                  const Schema* expected = nullptr);

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return num_rows_; }
  std::size_t rows_left() const { return num_rows_ - row_; }

  /// \brief Decodes the next min(max_rows, rows_left()) rows into a
  /// dense batch whose columns have their fields' reps (kNull for a
  /// kNull field).
  ColumnBatch Next(std::size_t max_rows);

 private:
  struct Column {
    DataType type = DataType::kNull;
    const uint8_t* bits = nullptr;  // num_rows_ validity bits
    const char* values = nullptr;   // the next row's value (non-NULLs only)
  };

  Status Validate(const Schema* expected);

  ShuffleBuffer owner_;     // keeps a shared or decompressed payload alive
  std::string_view bytes_;  // the SWF2 payload, magic through CRC
  Schema schema_;
  std::size_t num_rows_ = 0;
  std::size_t row_ = 0;
  std::vector<Column> columns_;
};

/// \brief The full-range decode: WirePayload::Open(bytes), then every
/// row in one batch.
Result<ColumnBatch> DeserializeColumnBatch(std::string_view bytes);

/// \brief SerializeColumnBatch(ToColumnBatch(batch)). A batch
/// ToColumnBatch rejects (a ragged row, or a cell that cannot take its
/// field's type) is a caller bug and aborts with its message.
std::string SerializeBatch(const Batch& batch);

/// \brief ToRowBatch(DeserializeColumnBatch(bytes)).
Result<Batch> DeserializeBatch(std::string_view bytes);

}  // namespace swift

#endif  // SWIFT_EXEC_SERDE_H_
