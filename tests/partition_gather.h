// Test helper: the partitions the shuffle sink ships, as batches.
//
// The runtime never gathers a partition into a batch (it encodes each
// one straight from the routed morsels, SerializePieces); the suites
// that check partition routing compare batches, so this helper routes
// with the one partition kernel (HashPartitioner) and gathers each
// partition's rows with AppendSelected.

#ifndef SWIFT_TESTS_PARTITION_GATHER_H_
#define SWIFT_TESTS_PARTITION_GATHER_H_

#include <vector>

#include "common/macros.h"
#include "exec/column_batch.h"
#include "exec/operators.h"

namespace swift {

/// Routes `batch` into `num_partitions` by `keys` (HashPartitioner) and
/// gathers partition p's rows, in input order, into dense batch p.
inline Result<std::vector<ColumnBatch>> GatherPartitions(
    const ColumnBatch& batch, const std::vector<ExprPtr>& keys,
    int num_partitions) {
  SWIFT_ASSIGN_OR_RETURN(
      HashPartitioner partitioner,
      HashPartitioner::Make(batch.schema, keys, num_partitions));
  PartitionedRows routed;
  SWIFT_RETURN_NOT_OK(partitioner.Route(batch, &routed));
  std::vector<ColumnBatch> out(static_cast<std::size_t>(num_partitions));
  for (std::size_t p = 0; p < out.size(); ++p) {
    const uint32_t* rows = routed.rows.data() + routed.starts[p];
    const std::size_t n = routed.starts[p + 1] - routed.starts[p];
    out[p].schema = batch.schema;
    out[p].physical_rows = n;
    for (const ColumnVector& src : batch.columns) {
      ColumnVector c = ColumnVector::OfRep(src.rep());
      c.AppendSelected(src, rows, n);
      out[p].columns.push_back(std::move(c));
    }
  }
  return out;
}

}  // namespace swift

#endif  // SWIFT_TESTS_PARTITION_GATHER_H_
