#include "dag/operator_kind.h"

namespace swift {

std::string_view OperatorKindToString(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kTableScan:
      return "TableScan";
    case OperatorKind::kFilter:
      return "Filter";
    case OperatorKind::kProject:
      return "Project";
    case OperatorKind::kHashJoin:
      return "HashJoin";
    case OperatorKind::kMergeJoin:
      return "MergeJoin";
    case OperatorKind::kHashAggregate:
      return "HashAggregate";
    case OperatorKind::kStreamedAggregate:
      return "StreamedAggregate";
    case OperatorKind::kSortBy:
      return "SortBy";
    case OperatorKind::kMergeSort:
      return "MergeSort";
    case OperatorKind::kWindow:
      return "Window";
    case OperatorKind::kLimit:
      return "Limit";
    case OperatorKind::kExchange:
      return "Exchange";
    case OperatorKind::kShuffleWrite:
      return "ShuffleWrite";
    case OperatorKind::kShuffleRead:
      return "ShuffleRead";
    case OperatorKind::kStreamLine:
      return "StreamLine";
    case OperatorKind::kAdhocSink:
      return "AdhocSink";
  }
  return "Unknown";
}

bool IsGlobalSortOperator(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kStreamedAggregate:
    case OperatorKind::kMergeJoin:
    case OperatorKind::kWindow:
    case OperatorKind::kSortBy:
    case OperatorKind::kMergeSort:
      return true;
    default:
      return false;
  }
}

}  // namespace swift
