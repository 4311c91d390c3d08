#ifndef SWIFT_EXEC_COLUMN_BATCH_H_
#define SWIFT_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "exec/schema.h"
#include "exec/value.h"

namespace swift {

/// \brief Physical representation of one column (DESIGN.md Sec. 13).
///
/// kInt64/kFloat64/kString hold typed contiguous storage plus a validity
/// bitmap; kNull is an all-null column of known length; kBoxed is the
/// escape hatch — a vector<Value> — for columns whose cells deviate from
/// one type (mirrors wire format v2's per-column tagged mode), so every
/// uniform row batch converts losslessly.
enum class ColumnRep : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kFloat64 = 2,
  kString = 3,
  kBoxed = 4,
};

/// \brief One typed column: contiguous values + validity bitmap.
///
/// Layout per rep:
///  - kInt64/kFloat64: data vector of `size()` elements; null slots hold
///    0 so kernels may read them unconditionally.
///  - kString: offsets (size()+1 uint32 entries) into one string heap;
///    cell i is heap[offsets[i], offsets[i+1]). Null cells are empty
///    ranges.
///  - kNull: no storage, every cell NULL.
///  - kBoxed: vector<Value>; nulls live in the Values themselves.
///
/// Validity is a packed little-endian bitmap, bit set = non-null (same
/// convention as wire format v2). An empty bitmap on a typed column
/// means "all valid" — the common no-null fast path allocates nothing.
///
/// Append(const Value&) is adaptive: an all-null column retypes itself
/// on the first non-null value, and a typed column falls back to kBoxed
/// when a cell of a different type arrives. Typed appends
/// (AppendInt64 etc.) are for kernels that already know the rep.
class ColumnVector {
 public:
  ColumnVector() = default;

  /// \brief Empty column pre-typed from a schema field type.
  static ColumnVector OfType(DataType t);

  /// \brief Empty column with the given physical representation.
  static ColumnVector OfRep(ColumnRep r);

  /// \brief All-null column of length n.
  static ColumnVector MakeNull(std::size_t n);

  ColumnRep rep() const { return rep_; }
  std::size_t size() const { return size_; }
  std::size_t null_count() const { return null_count_; }
  bool has_nulls() const { return null_count_ != 0; }

  bool IsNull(std::size_t i) const {
    switch (rep_) {
      case ColumnRep::kNull:
        return true;
      case ColumnRep::kBoxed:
        return boxed_[i].is_null();
      default:
        return !valid_.empty() && (valid_[i >> 3] & (1u << (i & 7))) == 0;
    }
  }

  // Unchecked typed accessors: valid only for the matching rep (and, for
  // the numeric ones, meaningful only when !IsNull(i) — null slots read
  // as 0).
  int64_t Int64At(std::size_t i) const { return i64_[i]; }
  double Float64At(std::size_t i) const { return f64_[i]; }
  std::string_view StrAt(std::size_t i) const {
    return std::string_view(heap_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }
  const Value& BoxedAt(std::size_t i) const { return boxed_[i]; }

  /// \brief Boxes cell i into a Value (allocates for strings).
  Value GetValue(std::size_t i) const;

  // Raw storage, for serde's near-memcpy paths and typed kernels.
  const int64_t* Int64Data() const { return i64_.data(); }
  const double* Float64Data() const { return f64_.data(); }
  const uint32_t* Offsets() const { return offsets_.data(); }
  const std::string& Heap() const { return heap_; }
  /// Empty means all-valid (for typed reps).
  const std::vector<uint8_t>& ValidityBits() const { return valid_; }
  const std::vector<Value>& BoxedValues() const { return boxed_; }

  void Reserve(std::size_t n);

  /// \brief Adaptive append: retypes an all-null column on the first
  /// non-null value; degrades to kBoxed on a type mismatch.
  void Append(const Value& v);
  void AppendNull();
  void AppendInt64(int64_t v);    // pre: rep kInt64 (or all-null; retypes)
  void AppendFloat64(double v);   // pre: rep kFloat64 (or all-null)
  void AppendString(std::string_view v);  // pre: rep kString (or all-null)

  /// \brief Appends src[i]; typed copy when reps match, boxed otherwise.
  void AppendFrom(const ColumnVector& src, std::size_t i);

  /// \brief Bulk-appends the physical subrange src[begin, begin+len):
  /// one memcpy for matching fixed-width reps, one heap substring copy
  /// (plus rebased offsets) for strings. When the reps differ (a kBoxed
  /// source, or this column under a kNull field) it appends cell by
  /// cell through AppendFrom, so the result has the rep converting the
  /// same cells would give. Used to carve ~1K-row morsels out of
  /// decoded batches and out of the table store.
  void AppendRangeFrom(const ColumnVector& src, std::size_t begin,
                       std::size_t len);

  // Bulk construction for serde's fixed-width decode: sizes the data
  // array (callers then memcpy into MutableInt64Data()/...) with an
  // all-valid bitmap; SetValidity installs a decoded bitmap afterwards.
  void ResizeFixedWidth(ColumnRep rep, std::size_t n);
  int64_t* MutableInt64Data() { return i64_.data(); }
  double* MutableFloat64Data() { return f64_.data(); }
  void SetValidity(std::vector<uint8_t> bits, std::size_t null_count);

  /// \brief Converts storage to kBoxed in place (used on type deviation
  /// and by tests).
  void Boxify();

 private:
  void EnsureValidity();           // materialize the all-valid bitmap
  void MarkValid(std::size_t i);   // append-position bookkeeping
  void MarkNull(std::size_t i);
  void RetypeFromNull(ColumnRep r);

  ColumnRep rep_ = ColumnRep::kNull;
  std::size_t size_ = 0;
  std::size_t null_count_ = 0;
  std::vector<uint8_t> valid_;  // packed bits; empty = all valid
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint32_t> offsets_;  // size_+1 entries when rep kString
  std::string heap_;
  std::vector<Value> boxed_;
};

/// \brief A columnar morsel: schema + one ColumnVector per field,
/// with an optional selection vector.
///
/// The selection vector is a list of physical row indices; when present,
/// the batch's logical contents are columns[...][selection[0..n)] in
/// that order — filters emit selections instead of copying survivors.
/// num_rows() is always the LOGICAL count; code that needs physical
/// storage extent uses physical_rows. Operators consuming a ColumnBatch
/// must go through num_rows()/PhysicalIndex() (or Flatten() first) —
/// never columns[c].size() directly.
struct ColumnBatch {
  Schema schema;
  std::vector<ColumnVector> columns;
  std::size_t physical_rows = 0;  // every column's size()
  std::optional<std::vector<uint32_t>> selection;

  /// \brief Logical row count (selection-aware).
  std::size_t num_rows() const {
    return selection ? selection->size() : physical_rows;
  }

  /// \brief Physical index of logical row i.
  std::size_t PhysicalIndex(std::size_t i) const {
    return selection ? (*selection)[i] : i;
  }

  /// \brief Gathers the selection into dense columns and drops it.
  void Flatten();

  /// \brief Truncates to the first k logical rows (LIMIT).
  void TruncateLogical(std::size_t k);

  /// \brief Dense copy of the logical row subrange [begin, begin+len):
  /// the morsel splitter for decoded shuffle batches. Fixed-width
  /// columns slice with one memcpy per column; a selection vector (even
  /// one straddling the requested range) is gathered away, so the
  /// result never aliases and never carries a selection.
  ColumnBatch SliceRows(std::size_t begin, std::size_t len) const;
};

/// \brief Empty batch with one column per field, pre-typed from `schema`.
ColumnBatch EmptyBatchOf(const Schema& schema);

/// \brief Converts a row batch. Errors (InvalidArgument) on ragged rows
/// — every row must have schema-width cells; cells whose type deviates
/// from the declared field type land in kBoxed columns, so conversion of
/// uniform batches is total.
Result<ColumnBatch> ToColumnBatch(const Batch& batch);

/// \brief Boxes back to rows, gathering through the selection vector.
Batch ToRowBatch(const ColumnBatch& batch);

/// \brief Gather-appends all logical rows of `src` onto `*dst` (schema
/// taken from the first append). Used to concatenate columnar streams.
void AppendColumnBatch(const ColumnBatch& src, ColumnBatch* dst);

}  // namespace swift

#endif  // SWIFT_EXEC_COLUMN_BATCH_H_
