#include "sql/planner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/tpch.h"
#include "partition/partitioners.h"
#include "runtime/local_runtime.h"
#include "sql/tpch_queries.h"

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
            Value(static_cast<int64_t>((*orders)->rows.size())));
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
            Value(static_cast<int64_t>((*region)->rows.size())));
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

// A ragged table (rows not of table width) still takes the full-width
// fallback scan. Uniformity is judged against the table's width, not the
// narrowed scan's: rows here are exactly as wide as the two columns the
// query reads, so a narrowed check would stream them as morsels and read
// past their end.
TEST(PlannerRaggedScan, FallbackKeepsResultsAndErrors) {
  LocalRuntime rt;
  auto t = std::make_shared<Table>();
  t->name = "ragged";
  t->schema = Schema({Field{"a", DataType::kInt64},
                      Field{"b", DataType::kString},
                      Field{"c", DataType::kInt64}});
  for (int64_t i = 0; i < 40; ++i) {
    Row row = {Value(i % 4), Value("x"), Value(i)};
    if (i % 10 == 0) row.push_back(Value("extra"));
    t->rows.push_back(std::move(row));
  }
  ASSERT_TRUE(rt.catalog()->Register(t).ok());
  auto narrow = std::make_shared<Table>();
  narrow->name = "narrow";
  narrow->schema = t->schema;
  for (int64_t i = 0; i < 8; ++i) {
    narrow->rows.push_back(Row{Value(i), Value("y")});
  }
  ASSERT_TRUE(rt.catalog()->Register(narrow).ok());

  const char* sql = "select a, sum(c) as s from ragged group by a order by a";
  auto plan = PlanSql(sql, *rt.catalog());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const StageProgram* scan = ScanOf(*plan, "ragged");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(Names(scan->scan_schema), (std::vector<std::string>{"a", "c"}));
  auto got = rt.ExecuteSql(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->rows.size(), 4u);
  for (int64_t a = 0; a < 4; ++a) {
    int64_t sum = 0;
    for (int64_t i = a; i < 40; i += 4) sum += i;
    EXPECT_EQ(got->rows[a][0], Value(a));
    EXPECT_EQ(got->rows[a][1], Value(sum));
  }

  // Every row lacks c: the full-width fallback reports it as before.
  auto bad = rt.ExecuteSql("select a, c from narrow");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("row narrower than schema"),
            std::string::npos)
      << bad.status().ToString();
}

}  // namespace
}  // namespace swift
