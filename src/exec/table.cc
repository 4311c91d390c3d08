#include "exec/table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace swift {

std::size_t TableRowsView::size() const { return table_->num_rows(); }

TableRowsView::operator std::vector<Row>() const {
  return ToRowBatch(table_->data()).rows;
}

Table::Table(std::string name_in, ColumnBatch data)
    : name(std::move(name_in)), schema(data.schema), data_(std::move(data)) {
  SWIFT_CHECK(!data_.selection.has_value()) << "table " << name;
  SWIFT_CHECK(data_.columns.size() == schema.num_fields()) << "table " << name;
  for (const ColumnVector& col : data_.columns) {
    SWIFT_CHECK(col.size() == data_.physical_rows) << "table " << name;
  }
}

std::pair<std::size_t, std::size_t> Table::TaskSliceBounds(
    int task_index, int task_count) const {
  if (task_count <= 0 || task_index < 0 || task_index >= task_count) {
    return {0, 0};
  }
  const std::size_t n = num_rows();
  const std::size_t per = (n + static_cast<std::size_t>(task_count) - 1) /
                          static_cast<std::size_t>(task_count);
  const std::size_t begin =
      std::min(n, per * static_cast<std::size_t>(task_index));
  const std::size_t end = std::min(n, begin + per);
  return {begin, end};
}

Result<std::shared_ptr<Table>> MakeTable(std::string name, Schema schema,
                                         std::vector<Row> rows) {
  Result<ColumnBatch> data =
      ToColumnBatch(Batch{std::move(schema), std::move(rows)});
  if (!data.ok()) {
    return Status::InvalidArgument(StrFormat(
        "table %s: %s", name.c_str(), data.status().message().c_str()));
  }
  return std::make_shared<Table>(std::move(name), *std::move(data));
}

Status Catalog::Register(std::shared_ptr<Table> table) {
  const std::string key = ToLower(table->name);
  if (!tables_.emplace(key, std::move(table)).second) {
    return Status::AlreadyExists(StrFormat("table '%s'", key.c_str()));
  }
  return Status::OK();
}

void Catalog::Put(std::shared_ptr<Table> table) {
  tables_[ToLower(table->name)] = std::move(table);
}

Result<std::shared_ptr<Table>> Catalog::Lookup(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound(StrFormat("table '%s'", name.c_str()));
  }
  return it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [k, v] : tables_) out.push_back(k);
  return out;
}

}  // namespace swift
