#ifndef SWIFT_EXEC_OPERATORS_H_
#define SWIFT_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/bound_expr.h"
#include "exec/column_batch.h"
#include "exec/expression.h"
#include "exec/schema.h"

namespace swift {

/// \brief Pull-based physical operator: Open() then Next() until
/// std::nullopt. Output schema is valid after Open().
///
/// Every operator produces ColumnBatches (DESIGN.md Sec. 13). Batches may
/// carry selection vectors; consumers must go through
/// num_rows()/PhysicalIndex(), never a column's size().
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual Status Open() = 0;
  /// \brief Next output batch, or nullopt at end of stream.
  virtual Result<std::optional<ColumnBatch>> Next() = 0;

  const Schema& output_schema() const { return output_schema_; }

 protected:
  Schema output_schema_;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

/// \brief One ORDER BY key.
struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

/// \brief Aggregate functions of the runtime.
enum class AggKind : int { kSum, kCount, kMin, kMax, kAvg };

std::string_view AggKindToString(AggKind kind);

/// \brief One aggregate in a GROUP BY: kind(arg) AS output_name; a null
/// arg means COUNT(*).
struct AggSpec {
  AggKind kind = AggKind::kCount;
  ExprPtr arg;
  std::string output_name;
};

/// \brief Output schema of a GROUP BY: one field per group expression
/// (its bound type), then one per aggregate: COUNT int64, AVG float64,
/// SUM/MIN/MAX their argument's bound type. SUM/AVG over a string, any
/// aggregate but COUNT without an argument, and bind errors are
/// InvalidArgument naming the expression. The aggregate operators and
/// the planner both type through this one rule.
Result<Schema> AggOutputSchema(const Schema& in,
                               const std::vector<ExprPtr>& groups,
                               const std::vector<std::string>& group_names,
                               const std::vector<AggSpec>& aggs);

// ---- Sources --------------------------------------------------------

/// \brief Emits row batches converted through ToColumnBatch (a test and
/// bench helper; a ragged batch fails its Next() with InvalidArgument).
OperatorPtr MakeBatchSource(Schema schema, std::vector<Batch> batches);

/// \brief Emits pre-built columnar batches.
OperatorPtr MakeColumnBatchSource(Schema schema,
                                  std::vector<ColumnBatch> batches);

// ---- Streaming transforms -------------------------------------------

/// \brief Keeps rows where `predicate` is true.
OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate);

/// \brief Computes one output column per (expr, name) pair.
OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names);

/// \brief Emits at most `limit` rows.
OperatorPtr MakeLimit(OperatorPtr child, int64_t limit);

// ---- Joins ----------------------------------------------------------

/// \brief Join flavors of the runtime.
enum class JoinType : int { kInner = 0, kLeftOuter = 1 };

/// \brief Equi-join: builds a hash table on `right`, probes with
/// `left`. Output schema = left ++ right. NULL keys never match; with
/// kLeftOuter, unmatched (and NULL-key) left rows are emitted padded
/// with NULLs.
OperatorPtr MakeHashJoin(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys,
                         JoinType join_type = JoinType::kInner);

/// \brief Equi-join over inputs already sorted ascending by their keys
/// (the paper's MergeJoin / sort-merge-join operator). Inputs that are
/// not sorted yield Status::Internal. kLeftOuter pads unmatched left
/// rows with NULLs.
OperatorPtr MakeMergeJoin(OperatorPtr left, OperatorPtr right,
                          std::vector<ExprPtr> left_keys,
                          std::vector<ExprPtr> right_keys,
                          JoinType join_type = JoinType::kInner);

// ---- Sorting & aggregation ------------------------------------------

/// \brief Full materializing sort (the paper's SortBy / MergeSort).
OperatorPtr MakeSort(OperatorPtr child, std::vector<SortKey> keys);

/// \brief Hash GROUP BY. Output schema: group columns then aggregates.
/// With no group keys emits exactly one global-aggregate row.
OperatorPtr MakeHashAggregate(OperatorPtr child, std::vector<ExprPtr> groups,
                              std::vector<std::string> group_names,
                              std::vector<AggSpec> aggs);

/// \brief GROUP BY over input sorted by the group keys (the paper's
/// StreamedAggregate): O(1) state, emits groups in key order. Input that
/// is not sorted yields Status::Internal.
OperatorPtr MakeStreamedAggregate(OperatorPtr child,
                                  std::vector<ExprPtr> groups,
                                  std::vector<std::string> group_names,
                                  std::vector<AggSpec> aggs);

// ---- Window ---------------------------------------------------------

/// \brief Window functions computable per partition.
enum class WindowFunc : int { kRowNumber, kRank, kSum };

/// \brief Type of a window function's column: for kSum, whose argument
/// must bind to a number (or all-NULL), the argument's type, as a group
/// SUM gives; int64 otherwise. InvalidArgument, naming the expression,
/// for a string or missing kSum argument.
Result<DataType> WindowResultType(WindowFunc func, const ExprPtr& arg,
                                  const Schema& in);

/// \brief Appends one column `output_name` computed over partitions of
/// `partition_by`, ordered by `order_by` (the paper's Window operator).
/// kSum computes a running (cumulative) sum of `arg` under the group
/// SUM's rule: exact (wrapping) for int64, NULL until the partition has
/// seen a non-NULL argument.
OperatorPtr MakeWindow(OperatorPtr child, std::vector<ExprPtr> partition_by,
                       std::vector<SortKey> order_by, WindowFunc func,
                       ExprPtr arg, std::string output_name);

// ---- Helpers --------------------------------------------------------

/// \brief Drains an operator tree into one dense ColumnBatch (columns
/// pre-typed from the output schema, so an all-NULL or empty result
/// still has its fields' reps).
Result<ColumnBatch> CollectAllColumnar(PhysicalOperator* op);

/// \brief CollectAllColumnar boxed into rows (tests, benches, results).
Result<Batch> CollectAll(PhysicalOperator* op);

/// \brief Rows of one batch routed to shuffle partitions: partition p
/// holds the physical rows rows[starts[p], starts[p+1]), in input order.
struct PartitionedRows {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> starts;  // num_partitions + 1 entries
};

/// \brief The shuffle-write partition kernel. Make binds the key
/// expressions once; Route sends every logical row of a batch to
/// partition RangeReduce(hash of its keys, num_partitions): one
/// vectorized hash pass (KeyEncoder::HashColumns) over the key columns,
/// a plain-column key read in place, then a stable counting sort into
/// exact per-partition row lists. A row with a NULL key goes to
/// partition 0, and so does every row when there are no keys. The
/// shuffle sink encodes each partition straight from these row lists
/// (SerializePieces); nothing gathers a partition into a batch.
class HashPartitioner {
 public:
  /// InvalidArgument for num_partitions <= 0; bind errors as Bind's.
  static Result<HashPartitioner> Make(const Schema& schema,
                                      const std::vector<ExprPtr>& keys,
                                      int num_partitions);

  /// \brief Routes `batch` (of the schema Make bound against) into
  /// `*out`. Errors are key evaluation errors (division by zero).
  Status Route(const ColumnBatch& batch, PartitionedRows* out) const;

 private:
  std::vector<BoundExprPtr> keys_;
  uint32_t num_partitions_ = 1;
};

}  // namespace swift

#endif  // SWIFT_EXEC_OPERATORS_H_
