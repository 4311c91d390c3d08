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
/// bitmap; kNull is an all-null column of known length. The values equal
/// DataType's: Bind gives every expression one type (exec/bound_expr.h),
/// and a column's rep is its field's type from creation to drain.
enum class ColumnRep : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kFloat64 = 2,
  kString = 3,
};

/// \brief One typed column: contiguous values + validity bitmap.
///
/// Layout per rep:
///  - kInt64/kFloat64: data vector of `size()` elements; null slots hold
///    0 so kernels may read them unconditionally.
///  - kString: offsets (size()+1 uint64 entries, so the heap has no
///    4 GiB wall) into one string heap; cell i is
///    heap[offsets[i], offsets[i+1]). Null cells are empty ranges.
///  - kNull: no storage, every cell NULL.
///
/// Validity is a packed little-endian bitmap, bit set = non-null (same
/// convention as wire format v2). An empty bitmap on a typed column
/// means "all valid" — the common no-null fast path allocates nothing.
///
/// A column never changes rep: it equals the field's type, so kNull
/// exists only under a kNull field, and a NULL cell of a typed field is a
/// NULL slot of a typed column. Appending a cell of any other rep (a
/// value, a typed append, or a copy or gather from another column) is a
/// program bug and aborts (SWIFT_CHECK). The one widening, an int64 cell
/// under a float64 field, happens at the row boundary (ToColumnBatch);
/// inside an expression Bind promotes it. Typed appends (AppendInt64
/// etc.) are for kernels that already know the rep.
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
    return rep_ == ColumnRep::kNull ||
           (!valid_.empty() && (valid_[i >> 3] & (1u << (i & 7))) == 0);
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

  /// \brief Boxes cell i into a Value (allocates for strings).
  Value GetValue(std::size_t i) const;

  // Raw storage, for serde's near-memcpy paths and typed kernels.
  const int64_t* Int64Data() const { return i64_.data(); }
  const double* Float64Data() const { return f64_.data(); }
  const std::string& Heap() const { return heap_; }
  /// Empty means all-valid (for typed reps).
  const std::vector<uint8_t>& ValidityBits() const { return valid_; }

  /// \brief Reserves storage for `n` cells in all: their values, for a
  /// string column `heap_bytes` of heap, and with `nulls` a validity
  /// bitmap. Appends within the reservation never reallocate.
  void Reserve(std::size_t n, std::size_t heap_bytes = 0, bool nulls = false);

  /// \brief Appends a NULL or a value of the column's type. Aborts on
  /// any other type.
  void Append(const Value& v);
  void AppendNull();
  // pre: rep kInt64. Inline while no NULL has arrived; the bitmap
  // bookkeeping path (and the rep check) is out of line.
  void AppendInt64(int64_t v) {
    if (rep_ == ColumnRep::kInt64 && valid_.empty()) {
      i64_.push_back(v);
      ++size_;
      return;
    }
    AppendInt64Slow(v);
  }
  void AppendFloat64(double v) {  // pre: rep kFloat64
    if (rep_ == ColumnRep::kFloat64 && valid_.empty()) {
      f64_.push_back(v);
      ++size_;
      return;
    }
    AppendFloat64Slow(v);
  }
  void AppendString(std::string_view v);  // pre: rep kString

  /// \brief Appends src[i] (pre: src has this column's rep).
  void AppendFrom(const ColumnVector& src, std::size_t i);

  /// \brief Appends src[rows[0]], ..., src[rows[n-1]] (rows may repeat
  /// and come in any order): the gather kernel behind every selection
  /// flatten, batch concatenation, join output and partition scatter.
  /// The result equals n AppendFrom calls field for field (rep, size,
  /// null count, validity bitmap, storage), but matching typed reps copy
  /// in one loop per call, with a no-NULL fast path and the bitmap
  /// written in one pass. Storage grows to exactly size()+n (the string
  /// heap grows as std::string does). Both columns have one rep; a
  /// mismatch aborts.
  void AppendSelected(const ColumnVector& src, const uint32_t* rows,
                      std::size_t n);

  /// \brief Bulk-appends the physical subrange src[begin, begin+len):
  /// one memcpy for matching fixed-width reps, one heap substring copy
  /// (plus rebased offsets) for strings; a mismatched rep aborts. Like
  /// AppendSelected, the result equals per-cell AppendFrom calls field
  /// for field and storage grows to exactly size()+len. Used to carve
  /// ~1K-row morsels out of decoded batches and out of the table store,
  /// and to concatenate dense batches.
  void AppendRangeFrom(const ColumnVector& src, std::size_t begin,
                       std::size_t len);

  // Bulk construction for serde's decode: ResizeFixedWidth sizes the
  // data array (callers then memcpy into MutableInt64Data()/...) and
  // ResizeString the offsets (n+1 entries, the first 0) and a heap of
  // exactly `heap_bytes`, each with an all-valid bitmap; SetValidity
  // installs a decoded bitmap afterwards.
  void ResizeFixedWidth(ColumnRep rep, std::size_t n);
  void ResizeString(std::size_t n, std::size_t heap_bytes);
  int64_t* MutableInt64Data() { return i64_.data(); }
  double* MutableFloat64Data() { return f64_.data(); }
  uint64_t* MutableStringOffsets() { return offsets_.data(); }
  char* MutableHeap() { return heap_.data(); }
  void SetValidity(std::vector<uint8_t> bits, std::size_t null_count);

 private:
  void AppendInt64Slow(int64_t v);
  void AppendFloat64Slow(double v);
  // Validity of the n cells just written at positions size_..: cell k
  // came from source row rows[k] (begin + k when rows is null) under the
  // source bitmap src_valid, and `nulls` of them (the first at index
  // first_null) are NULL. Advances size_ and null_count_.
  void AppendGatheredValidity(const uint8_t* src_valid, const uint32_t* rows,
                              std::size_t begin, std::size_t n,
                              std::size_t first_null, std::size_t nulls);
  void EnsureValidity();           // materialize the all-valid bitmap
  void MarkValid(std::size_t i);   // append-position bookkeeping
  void MarkNull(std::size_t i);
  // Aborts unless `r` is this column's rep.
  void CheckRep(ColumnRep r) const;

  ColumnRep rep_ = ColumnRep::kNull;
  std::size_t size_ = 0;
  std::size_t null_count_ = 0;
  std::vector<uint8_t> valid_;  // packed bits; empty = all valid
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint64_t> offsets_;  // size_+1 entries when rep kString
  std::string heap_;
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

  /// \brief Dense copy of the logical row subrange [begin, begin+len).
  /// Fixed-width columns slice with one memcpy per column; a selection
  /// vector (even one straddling the requested range) is gathered away,
  /// so the result never aliases and never carries a selection.
  ColumnBatch SliceRows(std::size_t begin, std::size_t len) const;
};

/// \brief Empty batch with one column per field, pre-typed from `schema`.
ColumnBatch EmptyBatchOf(const Schema& schema);

/// \brief Converts a row batch into columns of the schema's field types.
/// An int64 cell under a float64 field widens; any other non-null cell
/// whose type differs from its field's (a kNull field takes only NULLs)
/// is InvalidArgument naming the row and the column, and so is a ragged
/// row (one whose cell count differs from the schema width).
Result<ColumnBatch> ToColumnBatch(const Batch& batch);

/// \brief Boxes back to rows, gathering through the selection vector.
Batch ToRowBatch(const ColumnBatch& batch);

/// \brief Concatenates the logical rows of `parts`, in order, into one
/// dense batch of `schema` (so an empty result still has the fields'
/// reps): the drain of every pipeline breaker. Each output column is
/// reserved once to the summed size (a string column's heap too) and
/// filled part by part, and each part's column is freed as soon as it is
/// copied, so the transient beyond the parts is one column, not one
/// batch. A single dense part is moved, not copied.
ColumnBatch ConcatBatches(const Schema& schema, std::vector<ColumnBatch> parts);

}  // namespace swift

#endif  // SWIFT_EXEC_COLUMN_BATCH_H_
