#ifndef SWIFT_EXEC_TABLE_H_
#define SWIFT_EXEC_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/column_batch.h"
#include "exec/schema.h"

namespace swift {

struct Table;

/// \brief Read-only boxed view of a Table's rows. It holds no data:
/// converting it to std::vector<Row> materializes every cell on demand.
///
/// Only the end-to-end benchmark's traced wire replay reads it
/// (`b.rows = t->rows`); nothing in src/ does. It goes away in the next
/// change to the benchmark, which reads the store directly.
class TableRowsView {
 public:
  explicit TableRowsView(const Table* table) : table_(table) {}
  TableRowsView(const TableRowsView&) = delete;
  TableRowsView& operator=(const TableRowsView&) = delete;

  std::size_t size() const;
  operator std::vector<Row>() const;  // NOLINT: implicit by design

 private:
  const Table* table_;
};

/// \brief A named in-memory table: the columnar store scans read
/// (DESIGN.md Sec. 14.5). One typed ColumnVector per schema field, all
/// `num_rows()` long, built once and immutable afterwards, so every
/// scan lane may read it concurrently. A scan slices the columns it
/// reads (ColumnVector::AppendRangeFrom) instead of converting cells.
struct Table {
  /// \brief Takes finished columns. `data` must carry no selection and
  /// one column per field of `data.schema`, each `data.physical_rows`
  /// long (checked: a store that breaks this is a program bug).
  Table(std::string name, ColumnBatch data);

  // `rows` points back at this object.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string name;
  const Schema schema;
  const TableRowsView rows{this};

  std::size_t num_rows() const { return data_.physical_rows; }
  const ColumnVector& column(std::size_t i) const { return data_.columns[i]; }
  /// \brief The whole store as one dense batch (schema = `schema`).
  const ColumnBatch& data() const { return data_; }

  /// \brief Row-index bounds [first, second) of scan task `task_index`
  /// of `task_count` (contiguous range partitioning, the paper's input
  /// split model). Out-of-range tasks get an empty range.
  std::pair<std::size_t, std::size_t> TaskSliceBounds(int task_index,
                                                      int task_count) const;

 private:
  ColumnBatch data_;
};

/// \brief Builds a table from hand-written rows (tests, examples,
/// tools), converting as ToColumnBatch does: an int64 cell under a
/// float64 field widens. InvalidArgument naming the table, the row and,
/// for a cell of another type, the column, when a row is not of schema
/// width or a cell cannot take its field's type.
Result<std::shared_ptr<Table>> MakeTable(std::string name, Schema schema,
                                         std::vector<Row> rows);

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
