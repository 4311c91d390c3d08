// Columnar table store suite (ctest label morsel_smoke).
//
// Pins DESIGN.md Sec. 14.5: a scan slices the store, and every morsel
// it emits is the row slice it stands for. Each morsel is checked
// against the row oracles in reference_ops.h (ref::Rows boxes the store
// a cell at a time; ref::RepOf is the rep converting those rows gives)
// on value, type, null bit and column rep, and its wire bytes against
// the naive encoder in reference_serde.h. Covered: every TPC-H table,
// 1/3/7 scan tasks, morsels of 1, 1000, 1024 and rows+1 rows, all
// columns and a reordered subset; hand-built all-NULL, type-deviating
// (kBoxed) and kNull-field columns, CSV null_token columns, and zero
// rows. The boxed rows view must encode to the store's bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/csv.h"
#include "exec/morsel.h"
#include "exec/serde.h"
#include "exec/table.h"
#include "exec/tpch.h"
#include "reference_ops.h"
#include "reference_serde.h"

namespace swift {
namespace {

std::vector<std::size_t> AllColumns(const Table& t) {
  std::vector<std::size_t> cols;
  for (std::size_t c = 0; c < t.schema.num_fields(); ++c) cols.push_back(c);
  return cols;
}

// Every other column from the last one down, so the subset is both
// narrower than the table and out of table order.
std::vector<std::size_t> ReorderedSubset(const Table& t) {
  std::vector<std::size_t> cols;
  for (std::size_t c = t.schema.num_fields(); c > 0;
       c -= std::min<std::size_t>(c, 2)) {
    cols.push_back(c - 1);
  }
  return cols;
}

// Scans `t` with `tasks` tasks of `morsel_rows`-row morsels over
// `columns` and checks every morsel against the rows it stands for.
void ExpectScanMatchesRows(const std::shared_ptr<Table>& t,
                           const std::vector<Row>& rows, int tasks,
                           std::size_t morsel_rows,
                           const std::vector<std::size_t>& columns) {
  std::vector<Field> fields;
  for (std::size_t c : columns) fields.push_back(t->schema.field(c));
  const Schema scan_schema(fields);
  const std::string where = t->name + " tasks=" + std::to_string(tasks) +
                            " morsel_rows=" + std::to_string(morsel_rows) +
                            " width=" + std::to_string(columns.size());
  std::size_t next_task_begin = 0;
  for (int task = 0; task < tasks; ++task) {
    const auto [begin, end] = t->TaskSliceBounds(task, tasks);
    ASSERT_EQ(begin, next_task_begin) << where;
    next_task_begin = end;
    auto src = MakeTableMorselSource(t, task, tasks, scan_schema,
                                     morsel_rows, columns);
    ASSERT_TRUE(src->Open().ok()) << where;
    std::size_t at = begin;
    for (;;) {
      auto next = src->Next();
      ASSERT_TRUE(next.ok()) << where << ": " << next.status().ToString();
      if (!next->has_value()) break;
      const ColumnBatch& m = **next;
      const std::size_t n = m.num_rows();
      ASSERT_EQ(n, std::min(morsel_rows, end - at)) << where << " at " << at;
      ASSERT_FALSE(m.selection.has_value()) << where;
      ASSERT_EQ(m.physical_rows, n) << where;
      ASSERT_EQ(m.columns.size(), columns.size()) << where;
      Batch slice;
      slice.schema = scan_schema;
      for (std::size_t i = 0; i < n; ++i) {
        Row row;
        for (std::size_t c : columns) row.push_back(rows[at + i][c]);
        slice.rows.push_back(std::move(row));
      }
      for (std::size_t c = 0; c < columns.size(); ++c) {
        const ColumnVector& col = m.columns[c];
        ASSERT_EQ(col.size(), n) << where;
        std::vector<Value> cells;
        for (const Row& row : slice.rows) cells.push_back(row[c]);
        EXPECT_EQ(col.rep(), ref::RepOf(scan_schema.field(c).type, cells))
            << where << " at " << at << " col " << columns[c];
        for (std::size_t i = 0; i < n; ++i) {
          const Value got = col.GetValue(i);
          ASSERT_EQ(col.IsNull(i), cells[i].is_null())
              << where << " row " << at + i << " col " << columns[c];
          ASSERT_EQ(got.type(), cells[i].type())
              << where << " row " << at + i << " col " << columns[c];
          ASSERT_EQ(got.Compare(cells[i]), 0)
              << where << " row " << at + i << " col " << columns[c];
        }
      }
      ASSERT_EQ(SerializeColumnBatch(m), ref::Serialize(slice))
          << where << " at " << at;
      at += n;
    }
    EXPECT_EQ(at, end) << where << " task " << task;
  }
  EXPECT_EQ(next_task_begin, t->num_rows()) << where;
}

void ExpectEveryScanMatchesRows(const std::shared_ptr<Table>& t) {
  const std::vector<Row> rows = ref::Rows(*t);
  ASSERT_EQ(rows.size(), t->num_rows());
  for (int tasks : {1, 3, 7}) {
    for (std::size_t morsel_rows :
         {std::size_t{1}, std::size_t{1000}, std::size_t{1024},
          t->num_rows() + 1}) {
      for (const auto& columns : {AllColumns(*t), ReorderedSubset(*t)}) {
        ExpectScanMatchesRows(t, rows, tasks, morsel_rows, columns);
      }
    }
  }
}

// The traced benchmark encodes a table as SerializeBatch over its boxed
// rows view; that must be the store's own wire bytes.
void ExpectRowsViewWireIsStoreWire(const Table& t) {
  Batch b;
  b.schema = t.schema;
  b.rows = t.rows;
  EXPECT_EQ(t.rows.size(), t.num_rows()) << t.name;
  EXPECT_EQ(SerializeBatch(b), SerializeColumnBatch(t.data())) << t.name;
  EXPECT_EQ(SerializeBatch(b), ref::Serialize(b)) << t.name;
}

Catalog TpchCatalog() {
  TpchConfig cfg;
  cfg.scale_factor = 0.002;
  Catalog catalog;
  EXPECT_TRUE(GenerateTpch(cfg, &catalog).ok());
  return catalog;
}

TEST(TableStoreTest, EveryTpchTableScansAsItsRows) {
  const Catalog catalog = TpchCatalog();
  ASSERT_EQ(catalog.TableNames().size(), 8u);
  for (const std::string& name : catalog.TableNames()) {
    auto t = *catalog.Lookup(name);
    // The generators append typed cells: no column may be boxed.
    for (std::size_t c = 0; c < t->schema.num_fields(); ++c) {
      EXPECT_EQ(t->column(c).rep(),
                static_cast<ColumnRep>(t->schema.field(c).type))
          << name << " col " << c;
    }
    ExpectEveryScanMatchesRows(t);
  }
}

TEST(TableStoreTest, TpchRowsViewEncodesAsTheStore) {
  const Catalog catalog = TpchCatalog();
  for (const std::string& name : catalog.TableNames()) {
    ExpectRowsViewWireIsStoreWire(**catalog.Lookup(name));
  }
}

// Columns the generators never build: all NULL under a typed field, a
// typed field with cells of another type, and a kNull field holding
// int64 cells in some rows only.
std::shared_ptr<Table> EdgeTable() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 23; ++i) {
    rows.push_back({Value(i), Value::Null(),
                    i == 17 ? Value("seventeen") : Value(i * 2),
                    i >= 9 && i < 14 ? Value(i) : Value::Null()});
  }
  auto t = MakeTable("edge",
                     Schema({{"k", DataType::kInt64},
                             {"all_null", DataType::kFloat64},
                             {"mixed", DataType::kInt64},
                             {"late", DataType::kNull}}),
                     std::move(rows));
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *std::move(t);
}

TEST(TableStoreTest, HandBuiltEdgeColumnsScanAsTheirRows) {
  auto t = EdgeTable();
  EXPECT_EQ(t->column(1).rep(), ColumnRep::kFloat64);
  EXPECT_EQ(t->column(1).null_count(), t->num_rows());
  EXPECT_EQ(t->column(2).rep(), ColumnRep::kBoxed);
  EXPECT_EQ(t->column(3).rep(), ColumnRep::kInt64);
  ExpectEveryScanMatchesRows(t);
  ExpectRowsViewWireIsStoreWire(*t);
}

TEST(TableStoreTest, CsvNullTokenColumnsScanAsTheirRows) {
  CsvOptions opts;
  opts.null_token = "NA";
  std::string text = "id,score,note,gone\n";
  for (int i = 0; i < 40; ++i) {
    text += std::to_string(i) + "," +
            (i % 3 == 0 ? "NA" : std::to_string(i) + ".5") + "," +
            (i % 5 == 0 ? "NA" : "n" + std::to_string(i)) + ",NA\n";
  }
  auto t = ReadCsvString("csv", text, opts);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ((*t)->schema.ToString(),
            "(id:int64, score:float64, note:string, gone:string)");
  EXPECT_EQ((*t)->column(1).null_count(), 14u);
  EXPECT_EQ((*t)->column(3).null_count(), 40u);
  ExpectEveryScanMatchesRows(*t);
  ExpectRowsViewWireIsStoreWire(**t);
}

TEST(TableStoreTest, ZeroRowTablesScanEmpty) {
  auto built = MakeTable("empty", Schema({{"a", DataType::kInt64},
                                          {"b", DataType::kString}}),
                         {});
  ASSERT_TRUE(built.ok());
  auto csv = ReadCsvString("empty_csv", "a,b\n");
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  for (const auto& t : {*built, *csv}) {
    EXPECT_EQ(t->num_rows(), 0u);
    for (int tasks : {1, 3}) {
      for (int task = 0; task < tasks; ++task) {
        EXPECT_EQ(t->TaskSliceBounds(task, tasks),
                  (std::pair<std::size_t, std::size_t>(0, 0)));
        auto src = MakeTableMorselSource(t, task, tasks, t->schema, 1024);
        ASSERT_TRUE(src->Open().ok());
        auto next = src->Next();
        ASSERT_TRUE(next.ok());
        EXPECT_FALSE(next->has_value()) << t->name;
      }
    }
    ExpectRowsViewWireIsStoreWire(*t);
  }
}

}  // namespace
}  // namespace swift
