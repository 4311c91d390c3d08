#ifndef SWIFT_SQL_DISTRIBUTED_PLAN_H_
#define SWIFT_SQL_DISTRIBUTED_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "dag/job_dag.h"
#include "exec/operators.h"
#include "exec/schema.h"

namespace swift {

/// \brief One stage-local operator in declarative form; the runtime
/// instantiates the matching PhysicalOperator per task.
struct LocalOpDesc {
  enum class Kind : int {
    kFilter,
    kProject,
    kHashJoin,
    kMergeJoin,  ///< sort-merge: runtime sorts both sides then merges
    kSort,
    kHashAggregate,
    kStreamedAggregate,  ///< runtime sorts by group keys then streams
    kLimit,
    kWindow,
  };
  Kind kind = Kind::kFilter;

  ExprPtr predicate;                    // kFilter
  std::vector<ExprPtr> exprs;           // kProject / group exprs
  std::vector<std::string> names;       // kProject / group output names
  std::vector<SortKey> sort_keys;       // kSort / kWindow order
  std::vector<AggSpec> aggs;            // aggregates
  std::vector<ExprPtr> left_keys;       // joins
  std::vector<ExprPtr> right_keys;      // joins
  bool left_outer = false;              // joins: LEFT OUTER semantics
  int64_t limit = 0;                    // kLimit
  std::vector<ExprPtr> partition_by;    // kWindow
  WindowFunc window_func = WindowFunc::kRowNumber;  // kWindow
  ExprPtr window_arg;                   // kWindow
  std::string output_name;              // kWindow
};

/// \brief Everything one stage's tasks need to execute.
///
/// A stage is either a scan (non-empty `scan_table`) or a compute stage
/// reading the shuffle outputs of `inputs`. A join op must be ops[0] and
/// consumes inputs[0] (left) and inputs[1] (right); all other ops form a
/// unary chain.
struct StageProgram {
  StageId stage = -1;
  std::string name;
  int task_count = 1;
  std::string scan_table;
  /// Table columns this scan stage reads, as indices into the table
  /// schema in table order; only meaningful for scan stages.
  std::vector<std::size_t> scan_columns;
  /// Schema of those columns as seen by this stage's expressions
  /// (alias-qualified): field i is table column scan_columns[i].
  Schema scan_schema;
  std::vector<StageId> inputs;
  std::vector<LocalOpDesc> ops;
  /// Hash-partition keys for the shuffle write; empty = every producer
  /// task sends its whole output to consumer partition 0 (gather).
  std::vector<ExprPtr> output_partition_keys;
  /// Columns the stage ships: for a non-sink stage, exactly what its
  /// consumer reads plus the partition keys (DESIGN.md Sec. 18).
  Schema output_schema;
};

/// \brief A fully planned distributed query: the scheduling DAG plus the
/// per-stage programs keyed by stage id. `final_stage` produces the
/// client-visible result (single task, AdhocSink).
struct DistributedPlan {
  JobDag dag;
  std::map<StageId, StageProgram> stages;
  StageId final_stage = -1;

  const StageProgram& program(StageId id) const { return stages.at(id); }

  /// \brief The unique consumer stage of `id`, or -1 for the final stage.
  StageId ConsumerOf(StageId id) const {
    const auto& outs = dag.outputs(id);
    return outs.empty() ? -1 : outs[0];
  }

  std::string ToString() const;
};

}  // namespace swift

#endif  // SWIFT_SQL_DISTRIBUTED_PLAN_H_
