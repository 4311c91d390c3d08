#ifndef SWIFT_DAG_OPERATOR_KIND_H_
#define SWIFT_DAG_OPERATOR_KIND_H_

#include <string_view>

namespace swift {

/// \brief The operator vocabulary of Swift stages (Fig. 4(b) of the
/// paper, plus the relational operators the SQL frontend emits).
enum class OperatorKind : int {
  kTableScan,
  kFilter,
  kProject,
  kHashJoin,
  kMergeJoin,          ///< global-sort operator (paper Sec. III-A)
  kHashAggregate,
  kStreamedAggregate,  ///< global-sort operator
  kSortBy,             ///< global-sort operator
  kMergeSort,          ///< global-sort operator
  kWindow,             ///< global-sort operator
  kLimit,
  kExchange,           ///< hash repartitioning boundary
  kShuffleWrite,
  kShuffleRead,
  kStreamLine,         ///< in-stage pipelined pass-through (Fig. 4(b))
  kAdhocSink,          ///< result sink for interactive queries
};

/// \brief Stable name for logging and plan rendering.
std::string_view OperatorKindToString(OperatorKind kind);

/// \brief True for the operators the paper lists as "global SORT
/// operations" (StreamedAggregate, MergeJoin, Window, SortBy, MergeSort):
/// a stage ending in one of these cannot stream its output, making its
/// outgoing shuffle edges barrier edges.
bool IsGlobalSortOperator(OperatorKind kind);

}  // namespace swift

#endif  // SWIFT_DAG_OPERATOR_KIND_H_
