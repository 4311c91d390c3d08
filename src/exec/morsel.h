#ifndef SWIFT_EXEC_MORSEL_H_
#define SWIFT_EXEC_MORSEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/operators.h"
#include "exec/table.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace swift {

/// Morsel-driven streaming execution (DESIGN.md Sec. 14).
///
/// A morsel is a ~1K-row ColumnBatch: the unit of streaming (sources
/// emit morsels instead of one batch per task slice, so pipeline-only
/// trees hold O(morsel) rows resident instead of O(slice)) and the unit
/// of intra-task parallelism (pipeline-breaker-free segments fan
/// independent morsels across the shared ThreadPool).

/// \brief Default logical rows per morsel (LocalRuntimeConfig::
/// morsel_rows mirrors this).
inline constexpr std::size_t kDefaultMorselRows = 1024;

/// \brief Scan cursor: emits the rows of scan task `task_index` of
/// `task_count` (Table::TaskSliceBounds) as dense ColumnBatch morsels
/// of at most `morsel_rows` rows, each sliced out of the table's store
/// (one memcpy per fixed-width column) — the task slice is never
/// materialized as a whole. Output field i is table column `columns[i]`
/// (empty = every table column in order); only those columns are read.
OperatorPtr MakeTableMorselSource(std::shared_ptr<const Table> table,
                                  int task_index, int task_count,
                                  Schema schema, std::size_t morsel_rows,
                                  std::vector<std::size_t> columns = {});

/// \brief Morselizing wrapper over pre-decoded columnar batches (shuffle
/// input): each input batch is carved into dense morsels of at most
/// `morsel_rows` rows (ColumnBatch::SliceRows — one memcpy per
/// fixed-width column) and the source batch is released as soon as its
/// last morsel is emitted. Batch and row order are preserved.
OperatorPtr MakeMorselSource(Schema schema, std::vector<ColumnBatch> batches,
                             std::size_t morsel_rows);

/// \brief One pipeline-breaker-free transform inside a parallel
/// segment. Only filter and project qualify: they map one morsel to one
/// morsel with no cross-morsel state, so morsels are independent.
struct MorselStep {
  enum class Kind { kFilter, kProject };
  Kind kind = Kind::kFilter;
  ExprPtr predicate;                // kFilter
  std::vector<ExprPtr> exprs;       // kProject
  std::vector<std::string> names;   // kProject
};

/// \brief Observability hooks for a parallel morsel pipeline. All
/// pointers optional (null = no-op).
struct MorselObs {
  obs::MetricsRegistry* metrics = nullptr;  ///< exec.morsel.* instruments
  obs::TraceRecorder* tracer = nullptr;     ///< per-morsel span sampling
  /// Every Nth processed morsel records a "morsel" span (0 = never).
  int span_sample_every = 64;
};

/// \brief Parallel pipeline segment: pulls morsels from `source`, runs
/// `steps` over each, and re-emits the results in claim (source) order,
/// so the stream is byte-identical to serial execution (hash-aggregate
/// first-seen group order and partition row order are
/// input-order-sensitive).
///
/// Concurrency model (deadlock-free by construction on a shared pool):
/// the consuming thread — which already occupies a pool slot when the
/// runtime executes tasks — claims and processes morsels itself, and up
/// to `lanes - 1` helper jobs submitted to `pool` join in when threads
/// are free. Progress never depends on a helper being scheduled; helper
/// jobs hold shared ownership of the pipeline state, so destroying the
/// operator never blocks on the pool either (stragglers see the stop
/// flag and exit). A claim gate bounds in-flight + buffered morsels to
/// a small window, keeping peak memory O(lanes * morsel).
///
/// `pool` may be null and `lanes` <= 1: the segment then degrades to a
/// serial morsel-at-a-time pipeline with identical output.
OperatorPtr MakeParallelMorselPipeline(OperatorPtr source,
                                       std::vector<MorselStep> steps,
                                       ThreadPool* pool, int lanes,
                                       MorselObs obs = {});

}  // namespace swift

#endif  // SWIFT_EXEC_MORSEL_H_
