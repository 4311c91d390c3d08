#ifndef SWIFT_EXEC_TABLE_H_
#define SWIFT_EXEC_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/schema.h"

namespace swift {

/// \brief A named in-memory table (the reproduction's stand-in for the
/// columnar table store Swift scans from).
struct Table {
  std::string name;
  Schema schema;
  std::vector<Row> rows;

  /// \brief Row-index bounds [first, second) of scan task `task_index`
  /// of `task_count` (contiguous range partitioning, the paper's input
  /// split model). This is the zero-copy form of a task slice: the
  /// morsel cursor (exec/morsel.h) reads `rows` through these bounds
  /// directly, so the slice is never materialized as a separate batch.
  std::pair<std::size_t, std::size_t> TaskSliceBounds(int task_index,
                                                      int task_count) const;

  /// \brief Rows assigned to scan task `task_index` of `task_count`,
  /// copied into a fresh pre-reserved Batch (a test and bench helper;
  /// the runtime uses TaskSliceBounds + the morsel cursor).
  Batch TaskSlice(int task_index, int task_count) const;
};

/// \brief Name -> table registry shared by executors on one "cluster".
class Catalog {
 public:
  /// \brief Registers a table; AlreadyExists when the name is taken.
  Status Register(std::shared_ptr<Table> table);

  /// \brief Replaces or inserts.
  void Put(std::shared_ptr<Table> table);

  Result<std::shared_ptr<Table>> Lookup(const std::string& name) const;

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, std::shared_ptr<Table>> tables_;
};

}  // namespace swift

#endif  // SWIFT_EXEC_TABLE_H_
