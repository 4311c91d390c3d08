#ifndef SWIFT_EXEC_MORSEL_H_
#define SWIFT_EXEC_MORSEL_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "exec/operators.h"
#include "exec/serde.h"
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

/// \brief Logical rows per morsel of every runtime scan and shuffle
/// input.
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

/// \brief Shuffle input as morsels: decodes each payload (validated in
/// full by WirePayload::Open when it was fetched) straight into dense
/// morsels of at most `morsel_rows` rows, in payload and row order, and
/// releases each payload after its last morsel. No payload is decoded
/// whole, and an empty payload emits nothing.
OperatorPtr MakeWireMorselSource(Schema schema,
                                 std::vector<WirePayload> payloads,
                                 std::size_t morsel_rows);

/// \brief Builds one lane's copy of a parallel segment's operator
/// chain on top of `input`. Only pipeline-breaker-free operators
/// (filter, project) qualify: each maps one morsel to at most one batch
/// with no cross-morsel state, so morsels are independent.
using MorselChain = std::function<OperatorPtr(OperatorPtr input)>;

/// \brief Observability hooks for a parallel morsel pipeline. All
/// pointers optional (null = no-op).
struct MorselObs {
  obs::MetricsRegistry* metrics = nullptr;  ///< exec.morsel.* instruments
  obs::TraceRecorder* tracer = nullptr;     ///< samples "morsel" spans
};

/// \brief Claim-gate width of a morsel pipeline with `lanes` lanes: at
/// any time at most this many morsels have been pulled from its source
/// and not yet re-emitted downstream, whatever the slice size.
inline std::size_t MorselClaimWindow(int lanes) {
  return std::max<std::size_t>(2 * static_cast<std::size_t>(std::max(1, lanes)),
                               4);
}

/// \brief Parallel pipeline segment: pulls morsels from `source`, runs
/// each through a lane's own copy of `chain`, and re-emits the results
/// in claim (source) order, so the stream is byte-identical to serial
/// execution (hash-aggregate first-seen group order and partition row
/// order are input-order-sensitive).
///
/// Concurrency model (deadlock-free by construction on a shared pool):
/// the consuming thread — which already occupies a pool slot when the
/// runtime executes tasks — claims and processes morsels itself, and up
/// to `lanes - 1` helper jobs submitted to `pool` join in when threads
/// are free. Progress never depends on a helper being scheduled; helper
/// jobs hold shared ownership of the pipeline state, so destroying the
/// operator never blocks on the pool either (stragglers see the stop
/// flag and exit). A claim gate bounds in-flight + buffered morsels to
/// MorselClaimWindow(lanes), keeping peak memory O(lanes * morsel).
///
/// Open() calls `chain` once for the consumer lane and once per helper
/// it spawns, each over a feed that holds one morsel at a time, and
/// opens every chain on the calling thread: helpers never bind. Per
/// morsel a lane pushes the morsel into its feed and pulls its chain
/// once. The segment's output schema is the consumer chain's.
///
/// `pool` may be null and `lanes` <= 1: the segment then degrades to a
/// serial morsel-at-a-time pipeline with identical output.
OperatorPtr MakeParallelMorselPipeline(OperatorPtr source, MorselChain chain,
                                       ThreadPool* pool, int lanes,
                                       MorselObs obs = {});

}  // namespace swift

#endif  // SWIFT_EXEC_MORSEL_H_
