#include "sql/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/crc32.h"
#include "exec/serde.h"
#include "exec/tpch.h"
#include "partition/partitioners.h"
#include "runtime/local_runtime.h"
#include "sql/tpch_queries.h"
#include "reference_ops.h"

namespace swift {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.scale_factor = 0.001;
    ASSERT_TRUE(GenerateTpch(cfg, &catalog_).ok());
  }
  Catalog catalog_;
};

TEST_F(PlannerTest, SimpleScanPlan) {
  auto plan = PlanSql("select l_orderkey from tpch_lineitem", catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Scan stage + final sink.
  EXPECT_EQ(plan->stages.size(), 2u);
  const StageProgram& sink = plan->program(plan->final_stage);
  EXPECT_EQ(sink.task_count, 1);
  EXPECT_TRUE(plan->dag.outputs(plan->final_stage).empty());
}

TEST_F(PlannerTest, UnknownTableFails) {
  EXPECT_EQ(PlanSql("select * from nope", catalog_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(PlannerTest, UnknownColumnFails) {
  auto st = PlanSql("select zzz from tpch_nation", catalog_).status();
  EXPECT_EQ(st.code(), StatusCode::kPlanError);
}

TEST_F(PlannerTest, FilterPushdownIntoScan) {
  auto plan = PlanSql(
      "select n_name from tpch_nation where n_regionkey = 3", catalog_);
  ASSERT_TRUE(plan.ok());
  // Find the scan stage; its ops must contain the filter.
  bool found = false;
  for (const auto& [id, p] : plan->stages) {
    if (p.scan_table == "tpch_nation") {
      ASSERT_FALSE(p.ops.empty());
      EXPECT_EQ(p.ops[0].kind, LocalOpDesc::Kind::kFilter);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PlannerTest, JoinProducesJoinStageWithKeys) {
  auto plan = PlanSql(
      "select n_name, r_name from tpch_nation n "
      "join tpch_region r on n.n_regionkey = r.r_regionkey",
      catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool join_found = false;
  for (const auto& [id, p] : plan->stages) {
    if (!p.ops.empty() &&
        (p.ops[0].kind == LocalOpDesc::Kind::kMergeJoin ||
         p.ops[0].kind == LocalOpDesc::Kind::kHashJoin)) {
      join_found = true;
      EXPECT_EQ(p.inputs.size(), 2u);
      EXPECT_EQ(p.ops[0].left_keys.size(), 1u);
      // Producers are partitioned by their join keys.
      for (StageId in : p.inputs) {
        EXPECT_FALSE(plan->program(in).output_partition_keys.empty());
      }
    }
  }
  EXPECT_TRUE(join_found);
}

TEST_F(PlannerTest, SortModeUsesMergeJoinAndBarrierEdges) {
  PlannerConfig cfg;
  cfg.sort_mode = true;
  auto plan = PlanSql(
      "select n_name, r_name from tpch_nation n "
      "join tpch_region r on n.n_regionkey = r.r_regionkey",
      catalog_, cfg);
  ASSERT_TRUE(plan.ok());
  // The join stage contains MergeJoin + MergeSort, so its outgoing edge
  // is a barrier edge.
  bool checked = false;
  for (const auto& [id, p] : plan->stages) {
    if (!p.ops.empty() && p.ops[0].kind == LocalOpDesc::Kind::kMergeJoin) {
      for (StageId out : plan->dag.outputs(id)) {
        EXPECT_EQ(plan->dag.EdgeKindOf(id, out), EdgeKind::kBarrier);
        checked = true;
      }
    }
  }
  EXPECT_TRUE(checked);
}

TEST_F(PlannerTest, HashModeKeepsPipelineEdges) {
  PlannerConfig cfg;
  cfg.sort_mode = false;
  auto plan = PlanSql(
      "select n_name, r_name from tpch_nation n "
      "join tpch_region r on n.n_regionkey = r.r_regionkey",
      catalog_, cfg);
  ASSERT_TRUE(plan.ok());
  for (const EdgeDef& e : plan->dag.edges()) {
    EXPECT_EQ(plan->dag.EdgeKindOf(e.src, e.dst), EdgeKind::kPipeline);
  }
  // Hash joins make the stage non-idempotent (Sec. IV-B distinction).
  bool nonidem = false;
  for (const StageDef& s : plan->dag.stages()) {
    if (!s.idempotent) nonidem = true;
  }
  EXPECT_TRUE(nonidem);
}

TEST_F(PlannerTest, AggregatePlanShapes) {
  auto plan = PlanSql(
      "select n_regionkey, count(*) as n from tpch_nation group by "
      "n_regionkey",
      catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  bool agg_found = false;
  for (const auto& [id, p] : plan->stages) {
    for (const LocalOpDesc& op : p.ops) {
      if (op.kind == LocalOpDesc::Kind::kStreamedAggregate ||
          op.kind == LocalOpDesc::Kind::kHashAggregate) {
        agg_found = true;
        EXPECT_EQ(op.exprs.size(), 1u);
        EXPECT_EQ(op.aggs.size(), 1u);
        EXPECT_EQ(op.aggs[0].output_name, "n");
        // Upstream partitions by the group key.
        EXPECT_FALSE(plan->program(p.inputs[0]).output_partition_keys.empty());
      }
    }
  }
  EXPECT_TRUE(agg_found);
  // Output schema is in SELECT order.
  const Schema& out = plan->program(plan->final_stage).output_schema;
  ASSERT_EQ(out.num_fields(), 2u);
  EXPECT_EQ(out.field(0).name, "n_regionkey");
  EXPECT_EQ(out.field(1).name, "n");
}

TEST_F(PlannerTest, GlobalAggregateSingleTask) {
  auto plan = PlanSql("select count(*) from tpch_orders", catalog_);
  ASSERT_TRUE(plan.ok());
  for (const auto& [id, p] : plan->stages) {
    for (const LocalOpDesc& op : p.ops) {
      if (op.kind == LocalOpDesc::Kind::kStreamedAggregate ||
          op.kind == LocalOpDesc::Kind::kHashAggregate) {
        EXPECT_EQ(p.task_count, 1);
      }
    }
  }
}

TEST_F(PlannerTest, NonGroupedSelectItemRejected) {
  auto st = PlanSql(
      "select n_name, count(*) from tpch_nation group by n_regionkey",
      catalog_).status();
  EXPECT_EQ(st.code(), StatusCode::kPlanError);
}

TEST_F(PlannerTest, OrderByStageIsSingleTask) {
  auto plan = PlanSql(
      "select n_name from tpch_nation order by n_name desc limit 5",
      catalog_);
  ASSERT_TRUE(plan.ok());
  bool sort_found = false;
  for (const auto& [id, p] : plan->stages) {
    for (const LocalOpDesc& op : p.ops) {
      if (op.kind == LocalOpDesc::Kind::kSort) {
        sort_found = true;
        EXPECT_EQ(p.task_count, 1);
        EXPECT_FALSE(op.sort_keys[0].ascending);
      }
    }
  }
  EXPECT_TRUE(sort_found);
}

TEST_F(PlannerTest, ScanTaskCountScalesWithRows) {
  PlannerConfig cfg;
  cfg.rows_per_scan_task = 100;
  cfg.max_scan_tasks = 8;
  auto plan = PlanSql("select o_orderkey from tpch_orders", catalog_, cfg);
  ASSERT_TRUE(plan.ok());
  for (const auto& [id, p] : plan->stages) {
    if (p.scan_table == "tpch_orders") {
      EXPECT_EQ(p.task_count, 8);  // clamped to max
    }
  }
  cfg.rows_per_scan_task = 1000000;
  auto small = PlanSql("select o_orderkey from tpch_orders", catalog_, cfg);
  ASSERT_TRUE(small.ok());
  for (const auto& [id, p] : small->stages) {
    if (p.scan_table == "tpch_orders") {
      EXPECT_EQ(p.task_count, 1);
    }
  }
}

TEST_F(PlannerTest, Q9PlanPartitionsIntoManyGraphlets) {
  const char* q9 =
      "select nation, o_year, sum(amount) as sum_profit from ("
      " select n_name as nation, substr(o_orderdate, 1, 4) as o_year,"
      "  l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity as amount"
      " from tpch_supplier s"
      " join tpch_lineitem l on s.s_suppkey = l.l_suppkey"
      " join tpch_partsupp ps on ps.ps_suppkey = l.l_suppkey and "
      "   ps.ps_partkey = l.l_partkey"
      " join tpch_part p on p.p_partkey = l.l_partkey"
      " join tpch_orders o on o.o_orderkey = l.l_orderkey"
      " join tpch_nation n on s.s_nationkey = n.n_nationkey"
      " where p_name like '%green%'"
      ") group by nation, o_year order by nation, o_year desc limit 999999";
  PlannerConfig cfg;
  cfg.sort_mode = true;
  auto plan = PlanSql(q9, catalog_, cfg);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // 6 scans + 5 joins + agg + order-by + sink = 14 stages.
  EXPECT_EQ(plan->stages.size(), 14u);

  ShuffleModeAwarePartitioner partitioner;
  auto graphlets = partitioner.Partition(plan->dag);
  ASSERT_TRUE(graphlets.ok());
  // In sort mode every join/agg stage emits barrier edges, so each of
  // the 5 joins starts a new graphlet boundary, like the paper's Fig. 4.
  EXPECT_GE(graphlets->graphlets.size(), 5u);

  PlannerConfig hash;
  hash.sort_mode = false;
  auto hplan = PlanSql(q9, catalog_, hash);
  ASSERT_TRUE(hplan.ok());
  auto hgraphlets = partitioner.Partition(hplan->dag);
  ASSERT_TRUE(hgraphlets.ok());
  // Hash joins pipeline everything; only the global ORDER BY stage
  // (SortBy) still cuts before the sink: 2 graphlets.
  EXPECT_EQ(hgraphlets->graphlets.size(), 2u);
}

TEST_F(PlannerTest, PlanToStringMentionsStages) {
  auto plan = PlanSql("select n_name from tpch_nation", catalog_);
  ASSERT_TRUE(plan.ok());
  const std::string s = plan->ToString();
  EXPECT_NE(s.find("tpch_nation"), std::string::npos);
  EXPECT_NE(s.find("tasks="), std::string::npos);
}

// ---- Column pruning (DESIGN.md Sec. 18) ---------------------------------

std::vector<std::string> Names(const Schema& s) {
  std::vector<std::string> out;
  for (const Field& f : s.fields()) out.push_back(f.name);
  return out;
}

const StageProgram* ScanOf(const DistributedPlan& plan,
                           const std::string& table) {
  for (const auto& [id, p] : plan.stages) {
    if (p.scan_table == table) return &p;
  }
  return nullptr;
}

TEST_F(PlannerTest, Q6ScanReadsFourColumnsAndShipsTwo) {
  auto plan = PlanSql(*TpchQuerySql(6), catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const StageProgram* scan = ScanOf(*plan, "tpch_lineitem");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(Names(scan->scan_schema),
            (std::vector<std::string>{"l_quantity", "l_extendedprice",
                                      "l_discount", "l_shipdate"}));
  auto table = catalog_.Lookup("tpch_lineitem");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(scan->scan_columns.size(), 4u);
  for (std::size_t i = 0; i < scan->scan_columns.size(); ++i) {
    EXPECT_EQ((*table)->schema.field(scan->scan_columns[i]).name,
              scan->scan_schema.field(i).name);
  }
  EXPECT_EQ(Names(scan->output_schema),
            (std::vector<std::string>{"l_extendedprice", "l_discount"}));
}

TEST_F(PlannerTest, ExplainShowsScannedAndShippedColumns) {
  auto plan = PlanSql(*TpchQuerySql(6), catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string s = plan->ToString();
  EXPECT_NE(s.find("scan(tpch_lineitem: l_quantity, l_extendedprice, "
                   "l_discount, l_shipdate)"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("ships=(l_extendedprice:float64, l_discount:float64)"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("returns=(revenue:float64)"), std::string::npos) << s;
}

// Every producer still ships the columns its shuffle partitions on, in
// both planning modes.
TEST_F(PlannerTest, EveryProducerResolvesItsPartitionKeys) {
  for (bool sort_mode : {true, false}) {
    PlannerConfig cfg;
    cfg.sort_mode = sort_mode;
    for (int q : RunnableTpchQueries()) {
      SCOPED_TRACE("Q" + std::to_string(q) +
                   (sort_mode ? " sort" : " hash"));
      auto plan = PlanSql(*TpchQuerySql(q), catalog_, cfg);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      for (const auto& [id, p] : plan->stages) {
        for (const ExprPtr& k : p.output_partition_keys) {
          std::vector<std::string> cols;
          k->CollectColumns(&cols);
          for (const std::string& c : cols) {
            EXPECT_TRUE(p.output_schema.IndexOf(c).ok())
                << p.name << " partition key " << c << " not in "
                << p.output_schema.ToString();
          }
        }
      }
    }
  }
}

TEST_F(PlannerTest, CountStarShipsOneColumnAndKeepsRowCount) {
  const char* sql = "select count(*) from tpch_orders";
  auto plan = PlanSql(sql, catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const StageProgram* scan = ScanOf(*plan, "tpch_orders");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->scan_schema.num_fields(), 1u);
  EXPECT_EQ(scan->output_schema.num_fields(), 1u);

  LocalRuntime rt;
  TpchConfig cfg;
  cfg.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(cfg, rt.catalog()).ok());
  auto orders = rt.catalog()->Lookup("tpch_orders");
  ASSERT_TRUE(orders.ok());
  auto got = rt.ExecuteSql(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->rows.size(), 1u);
  EXPECT_EQ(got->rows[0][0],
            Value(static_cast<int64_t>((*orders)->num_rows())));
}

// An unaliased self-join outputs each name twice; a by-name projection
// could not keep one copy, so the join ships full width and still runs.
TEST_F(PlannerTest, DuplicateNamesShipFullWidth) {
  const char* sql =
      "select count(*) from tpch_region join tpch_region "
      "on r_regionkey = r_regionkey";
  auto plan = PlanSql(sql, catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto region = catalog_.Lookup("tpch_region");
  ASSERT_TRUE(region.ok());
  for (const auto& [id, p] : plan->stages) {
    if (!p.ops.empty() && p.ops[0].kind == LocalOpDesc::Kind::kMergeJoin) {
      EXPECT_EQ(p.output_schema.num_fields(),
                2 * (*region)->schema.num_fields());
    }
  }
  LocalRuntime rt;
  TpchConfig cfg;
  cfg.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(cfg, rt.catalog()).ok());
  auto got = rt.ExecuteSql(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->rows.size(), 1u);
  EXPECT_EQ(got->rows[0][0],
            Value(static_cast<int64_t>((*region)->num_rows())));
}

// The LEFT JOIN's right-side-only ON predicate runs in the orders scan:
// o_comment is read there and never shipped.
TEST_F(PlannerTest, Q13ReadsOCommentWithoutShippingIt) {
  auto plan = PlanSql(*TpchQuerySql(13), catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const StageProgram* scan = ScanOf(*plan, "tpch_orders");
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->scan_schema.IndexOf("o_comment").ok())
      << scan->scan_schema.ToString();
  EXPECT_FALSE(scan->output_schema.IndexOf("o_comment").ok())
      << scan->output_schema.ToString();
}

// Pruning never changes what a query returns: the sink schemas below
// are the full-width planner's.
TEST_F(PlannerTest, SinkSchemasOfSuiteQueriesAreUnchanged) {
  const std::map<int, std::string> want = {
      {1,
       "(l_returnflag:string, l_linestatus:string, sum_qty:float64, "
       "sum_base_price:float64, sum_disc_price:float64, avg_qty:float64, "
       "avg_disc:float64, count_order:int64)"},
      {3, "(l_orderkey:int64, revenue:float64, o_orderdate:string)"},
      {5, "(n_name:string, revenue:float64)"},
      {6, "(revenue:float64)"},
      {9, "(nation:string, o_year:string, sum_profit:float64)"},
      {10,
       "(c_custkey:int64, c_name:string, revenue:float64, n_name:string)"},
      {12, "(l_shipmode:string, line_count:int64)"},
      {13, "(c_count:int64, custdist:int64)"},
      {14, "(p_type:string, revenue:float64)"},
      {18,
       "(c_name:string, c_custkey:int64, o_orderkey:int64, "
       "o_orderdate:string, o_totalprice:float64, total_qty:float64)"},
      {19, "(revenue:float64)"},
  };
  ASSERT_EQ(RunnableTpchQueries().size(), want.size());
  for (bool sort_mode : {true, false}) {
    PlannerConfig cfg;
    cfg.sort_mode = sort_mode;
    for (const auto& [q, schema] : want) {
      auto plan = PlanSql(*TpchQuerySql(q), catalog_, cfg);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(plan->program(plan->final_stage).output_schema.ToString(),
                schema)
          << "Q" << q;
    }
  }
}

// A ragged table (rows not of schema width) is rejected when it is
// built, with InvalidArgument naming the table and the row, whether its
// rows are wider or narrower than the schema: the columnar store cannot
// hold one, so no scan ever reads past a row's end.
TEST(PlannerRaggedScan, WiderAndNarrowerRowsFailClosed) {
  const Schema schema({Field{"a", DataType::kInt64},
                       Field{"b", DataType::kString},
                       Field{"c", DataType::kInt64}});
  std::vector<Row> wide_rows;
  for (int64_t i = 0; i < 40; ++i) {
    Row row = {Value(i % 4), Value("x"), Value(i)};
    if (i == 30) row.push_back(Value("extra"));
    wide_rows.push_back(std::move(row));
  }
  std::vector<Row> narrow_rows;
  for (int64_t i = 0; i < 8; ++i) {
    narrow_rows.push_back(Row{Value(i), Value("y")});
  }

  // The wide table's only ragged row is row 30; every narrow row is
  // short, so the first one is named.
  for (const auto& [name, rows, want] :
       {std::tuple{"wide", wide_rows, "row 30 has 4 cells"},
        std::tuple{"narrow", narrow_rows, "row 0 has 2 cells"}}) {
    auto table = MakeTable(name, schema, rows);
    ASSERT_FALSE(table.ok()) << name;
    EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument) << name;
    const std::string msg = table.status().ToString();
    EXPECT_NE(msg.find(std::string("table ") + name), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(want), std::string::npos) << msg;
  }
}

// ---- Predicate placement (DESIGN.md Sec. 19) -----------------------------

bool HasFilterOn(const StageProgram& p, const std::string& column) {
  for (const LocalOpDesc& op : p.ops) {
    if (op.kind != LocalOpDesc::Kind::kFilter) continue;
    std::vector<std::string> cols;
    op.predicate->CollectColumns(&cols);
    if (std::find(cols.begin(), cols.end(), column) != cols.end()) return true;
  }
  return false;
}

bool HasFilter(const StageProgram& p) {
  for (const LocalOpDesc& op : p.ops) {
    if (op.kind == LocalOpDesc::Kind::kFilter) return true;
  }
  return false;
}

// Each single-table WHERE conjunct runs in its table's scan, including
// tables joined after the FROM operand: the scan reads the filter column
// and ships neither it nor the rows it rejects.
TEST_F(PlannerTest, SingleTableConjunctsRunInTheirScans) {
  struct Placement {
    int q;
    std::string table;
    std::string column;
  };
  const std::vector<Placement> placements = {
      {3, "tpch_lineitem", "l_shipdate"},  {5, "tpch_orders", "o_orderdate"},
      {5, "tpch_region", "r_name"},        {9, "tpch_part", "p_name"},
      {10, "tpch_orders", "o_orderdate"},  {10, "tpch_lineitem", "l_returnflag"},
      {12, "tpch_lineitem", "l_shipdate"}, {19, "tpch_part", "p_brand"},
  };
  for (bool sort_mode : {true, false}) {
    PlannerConfig cfg;
    cfg.sort_mode = sort_mode;
    for (const Placement& want : placements) {
      SCOPED_TRACE("Q" + std::to_string(want.q) + " " + want.column +
                   (sort_mode ? " sort" : " hash"));
      auto plan = PlanSql(*TpchQuerySql(want.q), catalog_, cfg);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const StageProgram* scan = ScanOf(*plan, want.table);
      ASSERT_NE(scan, nullptr);
      EXPECT_TRUE(HasFilterOn(*scan, want.column));
      EXPECT_TRUE(scan->scan_schema.IndexOf(want.column).ok())
          << scan->scan_schema.ToString();
      EXPECT_FALSE(scan->output_schema.IndexOf(want.column).ok())
          << scan->output_schema.ToString();
    }
  }
  // Q3 groups by o_orderdate, so the orders scan filters on it and still
  // ships it.
  auto q3 = PlanSql(*TpchQuerySql(3), catalog_);
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  EXPECT_TRUE(HasFilterOn(*ScanOf(*q3, "tpch_orders"), "o_orderdate"));
}

TEST_F(PlannerTest, Q12LineitemScanFiltersAtTheSource) {
  auto plan = PlanSql(*TpchQuerySql(12), catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const StageProgram* scan = ScanOf(*plan, "tpch_lineitem");
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(HasFilterOn(*scan, "l_shipmode"));
  EXPECT_TRUE(HasFilterOn(*scan, "l_shipdate"));
  EXPECT_EQ(Names(scan->output_schema),
            (std::vector<std::string>{"l.l_orderkey", "l.l_shipmode"}));
  // No stage downstream of the scans filters.
  for (const auto& [id, p] : plan->stages) {
    if (p.scan_table.empty()) {
      EXPECT_FALSE(HasFilter(p)) << p.name;
    }
  }
  const std::string s = plan->ToString();
  EXPECT_NE(s.find("  program M2: scan(tpch_lineitem: l.l_orderkey, "
                   "l.l_shipdate, l.l_shipmode) tasks=1 "
                   "ships=(l.l_orderkey:int64, l.l_shipmode:string) "
                   "filter=(((l_shipmode = 'MAIL') or (l_shipmode = 'SHIP')) "
                   "and (l_shipdate >= '1994-01-01') "
                   "and (l_shipdate < '1995-01-01'))\n"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("  program M1: scan(tpch_orders: o.o_orderkey) tasks=1 "
                   "ships=(o.o_orderkey:int64)\n"),
            std::string::npos)
      << s;
}

// A WHERE conjunct on a LEFT JOIN's right side filters the joined rows,
// null-extended ones included; pushed into the right scan it would turn
// every filtered order into a null-extended customer row instead.
TEST_F(PlannerTest, LeftJoinRightSideWhereStaysAboveTheJoin) {
  const char* priced =
      "select count(*) from tpch_customer c left join tpch_orders o "
      "on c.c_custkey = o.o_custkey where o_totalprice > 1000";
  const char* orderless =
      "select count(*) from tpch_customer c left join tpch_orders o "
      "on c.c_custkey = o.o_custkey where o_orderkey is null";
  for (const char* sql : {priced, orderless}) {
    auto plan = PlanSql(sql, catalog_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_FALSE(HasFilter(*ScanOf(*plan, "tpch_orders"))) << sql;
    bool join_filters = false;
    for (const auto& [id, p] : plan->stages) {
      if (!p.ops.empty() && p.ops[0].left_outer) join_filters = HasFilter(p);
    }
    EXPECT_TRUE(join_filters) << sql;
  }

  LocalRuntime rt;
  TpchConfig cfg;
  cfg.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(cfg, rt.catalog()).ok());
  auto customers = *rt.catalog()->Lookup("tpch_customer");
  auto orders = *rt.catalog()->Lookup("tpch_orders");
  std::set<int64_t> custkeys;
  for (const Row& c : ref::Rows(*customers)) custkeys.insert(c[0].int64());
  std::set<int64_t> ordering;
  int64_t want_priced = 0;
  for (const Row& o : ref::Rows(*orders)) {
    if (custkeys.count(o[1].int64()) == 0) continue;
    ordering.insert(o[1].int64());
    if (o[3].float64() > 1000) ++want_priced;
  }
  const int64_t want_orderless =
      static_cast<int64_t>(custkeys.size() - ordering.size());
  ASSERT_GT(want_orderless, 0);
  auto got = rt.ExecuteSql(priced);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->rows[0][0], Value(want_priced));
  got = rt.ExecuteSql(orderless);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->rows[0][0], Value(want_orderless));
}

// A conjunct one join input resolves but the joined schema makes
// ambiguous is not pushed into that input: the unaliased self-join below
// names r_name twice, so the query fails instead of silently reading the
// subquery's copy.
TEST_F(PlannerTest, SelfJoinConjunctStaysAmbiguous) {
  auto st = PlanSql(
                "select count(*) from tpch_region join "
                "(select r_regionkey as k, r_name from tpch_region) "
                "on r_regionkey = k where k = 1 or r_name = 'ASIA'",
                catalog_)
                .status();
  EXPECT_EQ(st.code(), StatusCode::kPlanError);
  EXPECT_NE(st.message().find("ambiguous column reference 'r_name'"),
            std::string::npos)
      << st.ToString();
}

// An inner join's residual ON conjunct that names one input only
// pre-filters that input's stage; the join itself filters nothing.
TEST_F(PlannerTest, InnerJoinSingleSideOnResidualRunsInThatSide) {
  const char* on =
      "select count(*) from tpch_orders o join tpch_lineitem l "
      "on o.o_orderkey = l.l_orderkey and l_quantity < 10 "
      "and o_totalprice > 1000";
  const char* where =
      "select count(*) from tpch_orders o join tpch_lineitem l "
      "on o.o_orderkey = l.l_orderkey "
      "where l_quantity < 10 and o_totalprice > 1000";
  auto plan = PlanSql(on, catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(HasFilterOn(*ScanOf(*plan, "tpch_lineitem"), "l_quantity"));
  EXPECT_TRUE(HasFilterOn(*ScanOf(*plan, "tpch_orders"), "o_totalprice"));
  for (const auto& [id, p] : plan->stages) {
    if (p.scan_table.empty()) {
      EXPECT_FALSE(HasFilter(p)) << p.name;
    }
  }

  LocalRuntime rt;
  TpchConfig cfg;
  cfg.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(cfg, rt.catalog()).ok());
  auto got_on = rt.ExecuteSql(on);
  auto got_where = rt.ExecuteSql(where);
  ASSERT_TRUE(got_on.ok()) << got_on.status().ToString();
  ASSERT_TRUE(got_where.ok()) << got_where.status().ToString();
  EXPECT_GT(got_on->rows[0][0].int64(), 0);
  EXPECT_EQ(got_on->rows[0][0], got_where->rows[0][0]);
}

// An outer WHERE over an unaliased FROM subquery runs after the
// subquery's GROUP BY or ORDER BY/LIMIT, never in a scan inside it.
class PlacementScopeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.scale_factor = 0.002;
    ASSERT_TRUE(GenerateTpch(cfg, rt_.catalog()).ok());
    lineitem_ = *rt_.catalog()->Lookup("tpch_lineitem");
  }

  int64_t Count(const std::string& sql) {
    auto plan = PlanSql(sql, *rt_.catalog());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (plan.ok()) {
      EXPECT_FALSE(HasFilter(*ScanOf(*plan, "tpch_lineitem"))) << sql;
    }
    auto got = rt_.ExecuteSql(sql);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    return got.ok() ? got->rows[0][0].int64() : -1;
  }

  LocalRuntime rt_;
  std::shared_ptr<Table> lineitem_;
};

TEST_F(PlacementScopeTest, OuterWhereFiltersGroupedSubquery) {
  std::map<int64_t, double> qty;
  for (const Row& r : ref::Rows(*lineitem_)) {
    qty[r[0].int64()] += r[4].float64();
  }
  int64_t want = 0;
  for (const auto& [key, sum] : qty) want += sum > 100 ? 1 : 0;
  ASSERT_GT(want, 0);
  EXPECT_EQ(Count("select count(*) as n from (select l_orderkey, "
                  "sum(l_quantity) as total from tpch_lineitem "
                  "group by l_orderkey) where total > 100"),
            want);
  // The same query with the aggregate named like its input column.
  EXPECT_EQ(Count("select count(*) as n from (select l_orderkey, "
                  "sum(l_quantity) as l_quantity from tpch_lineitem "
                  "group by l_orderkey) where l_quantity > 100"),
            want);
}

TEST_F(PlacementScopeTest, OuterWhereFiltersLimitedSubquery) {
  std::vector<double> qty;
  for (const Row& r : ref::Rows(*lineitem_)) qty.push_back(r[4].float64());
  std::sort(qty.rbegin(), qty.rend());
  qty.resize(5);
  const int64_t want = std::count_if(qty.begin(), qty.end(),
                                     [](double q) { return q < 40; });
  EXPECT_EQ(Count("select count(*) as n from (select l_orderkey, l_quantity "
                  "from tpch_lineitem order by l_quantity desc limit 5) "
                  "where l_quantity < 40"),
            want);
}

// Placement changes where predicates run, never what a query returns:
// the digests are the sf 0.002 golden answers recorded before it.
TEST(PlacementAnswers, SuiteAnswersAreUnchanged) {
  const std::map<int, std::pair<uint32_t, std::size_t>> golden = {
      {1, {0xa02a98f2, 6}},   {3, {0x086ed09b, 10}},  {5, {0x184097f1, 3}},
      {6, {0x01f96d9b, 1}},   {9, {0x8f704ce9, 98}},  {10, {0x91a56e8b, 20}},
      {12, {0xe8fddd2d, 2}},  {13, {0xc9a7e1d4, 22}}, {14, {0x957a6690, 6}},
      {18, {0x159bb146, 100}}, {19, {0x1b96cd90, 1}},
  };
  ASSERT_EQ(RunnableTpchQueries().size(), golden.size());
  LocalRuntime rt;
  TpchConfig cfg;
  cfg.scale_factor = 0.002;
  ASSERT_TRUE(GenerateTpch(cfg, rt.catalog()).ok());
  for (const auto& [q, want] : golden) {
    auto got = rt.ExecuteSql(*TpchQuerySql(q));
    ASSERT_TRUE(got.ok()) << "Q" << q << ": " << got.status().ToString();
    const std::string wire = SerializeBatch(*got);
    EXPECT_EQ(Crc32(std::string_view(wire).substr(0, wire.size() - 4)),
              want.first)
        << "Q" << q;
    EXPECT_EQ(got->num_rows(), want.second) << "Q" << q;
  }
}

}  // namespace
}  // namespace swift
