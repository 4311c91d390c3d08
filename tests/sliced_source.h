// Test helper: pre-built columnar batches served as morsels.
//
// Each batch of at most `morsel_rows` logical rows passes through whole
// (selection and column reps untouched); a larger one is cut into
// dense morsels of at most `morsel_rows` rows with SliceRows. Suites
// use it to make operators concatenate their input across morsel
// boundaries.

#ifndef SWIFT_TESTS_SLICED_SOURCE_H_
#define SWIFT_TESTS_SLICED_SOURCE_H_

#include <algorithm>
#include <vector>

#include "exec/column_batch.h"
#include "exec/operators.h"

namespace swift {

inline OperatorPtr MakeSlicedSource(Schema schema,
                                    std::vector<ColumnBatch> batches,
                                    std::size_t morsel_rows) {
  std::vector<ColumnBatch> morsels;
  for (ColumnBatch& b : batches) {
    const std::size_t n = b.num_rows();
    if (n == 0) continue;
    if (n <= morsel_rows) {
      morsels.push_back(std::move(b));
      continue;
    }
    for (std::size_t begin = 0; begin < n; begin += morsel_rows) {
      morsels.push_back(b.SliceRows(begin, std::min(morsel_rows, n - begin)));
    }
  }
  return MakeColumnBatchSource(std::move(schema), std::move(morsels));
}

}  // namespace swift

#endif  // SWIFT_TESTS_SLICED_SOURCE_H_
