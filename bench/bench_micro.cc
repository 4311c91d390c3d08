// Google-benchmark micro-benchmarks of the library's hot components:
// DAG construction, graphlet partitioning, expression evaluation, batch
// serde, hash partitioning, Cache Worker operations, the event engine,
// SQL parsing/planning, and the sort/aggregate operators.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/thread_pool.h"
#include "dag/dag_builder.h"
#include "exec/bound_expr.h"
#include "exec/morsel.h"
#include "exec/operators.h"
#include "exec/serde.h"
#include "exec/tpch.h"
#include "partition/partitioners.h"
#include "shuffle/cache_worker.h"
#include "shuffle/shuffle_service.h"
#include "sim/event_engine.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "trace/tpch_jobs.h"

namespace swift {
namespace {

void BM_JobDagCreate(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    DagBuilder b("chain");
    for (int s = 0; s < stages; ++s) {
      b.AddStage("s" + std::to_string(s), 4,
                 {OperatorKind::kShuffleRead, OperatorKind::kMergeSort,
                  OperatorKind::kShuffleWrite});
    }
    for (int s = 0; s + 1 < stages; ++s) b.AddEdge(s, s + 1);
    auto dag = b.Build();
    benchmark::DoNotOptimize(dag);
  }
}
BENCHMARK(BM_JobDagCreate)->Arg(8)->Arg(64)->Arg(256);

void BM_GraphletPartition_Q9(benchmark::State& state) {
  auto job = BuildTpchJob(9);
  ShuffleModeAwarePartitioner p;
  for (auto _ : state) {
    auto plan = p.Partition(job->dag);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_GraphletPartition_Q9);

// l_extendedprice * (1 - l_discount) style expression.
ExprPtr MakeDiscountExpr() {
  return Expr::Binary(
      BinaryOp::kMul, Expr::Column("a"),
      Expr::Binary(BinaryOp::kSub, Expr::Literal(Value(1.0)),
                   Expr::Column("b")));
}

void BM_ExpressionEvalBoundVector(benchmark::State& state) {
  Batch b;
  b.schema = Schema({{"a", DataType::kFloat64}, {"b", DataType::kFloat64}});
  for (int i = 0; i < 1024; ++i) {
    b.rows.push_back({Value(i * 1.5), Value((i % 97) * 0.01)});
  }
  const ColumnBatch cb = *ToColumnBatch(b);
  auto bound = *Bind(MakeDiscountExpr(), b.schema);
  ColumnVector out;
  for (auto _ : state) {
    auto st = bound->EvaluateVector(cb, &out);
    benchmark::DoNotOptimize(st);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(b.rows.size()));
}
BENCHMARK(BM_ExpressionEvalBoundVector);

Batch MakeBatch(int rows) {
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64},
                     {"v", DataType::kFloat64},
                     {"s", DataType::kString}});
  for (int i = 0; i < rows; ++i) {
    b.rows.push_back({Value(static_cast<int64_t>(i)), Value(i * 0.5),
                      Value("payload-" + std::to_string(i % 100))});
  }
  return b;
}

// 16 int64 columns: the width of a TPC-H lineitem row once dates and
// flags are dictionary/epoch-encoded — the int-heavy shape the shuffle
// path sees on the aggregation-bound queries.
constexpr int kIntBatchCols = 16;

Batch MakeIntBatch(int rows) {
  Batch b;
  std::vector<Field> fields;
  for (int c = 0; c < kIntBatchCols; ++c) {
    fields.push_back({"c" + std::to_string(c), DataType::kInt64});
  }
  b.schema = Schema(std::move(fields));
  for (int i = 0; i < rows; ++i) {
    Row row;
    row.reserve(kIntBatchCols);
    for (int c = 0; c < kIntBatchCols; ++c) {
      row.emplace_back(static_cast<int64_t>(i * 31 + c));
    }
    b.rows.push_back(std::move(row));
  }
  return b;
}

// Local-shuffle write + read of one partition on the shared-buffer
// plane. Unique key per iteration; retain off so the slot is consumed by
// the read.
void BM_LocalShuffleSharedBuffer(benchmark::State& state) {
  ShuffleService::Config cfg;
  cfg.machines = 2;
  cfg.retain_for_recovery = false;
  ShuffleService svc(cfg);
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  int task = 0;
  for (auto _ : state) {
    ShuffleSlotKey key{1, 0, task, 1, 0};
    (void)svc.WritePartition(ShuffleKind::kLocal, key,
                             ShuffleBuffer(std::string(payload)), 0, false);
    auto got = svc.ReadPartition(ShuffleKind::kLocal, key, 1, 0);
    benchmark::DoNotOptimize(got);
    ++task;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

BENCHMARK(BM_LocalShuffleSharedBuffer)->Arg(1 << 16)->Arg(1 << 20);

void BM_HashPartitionBound(benchmark::State& state) {
  const ColumnBatch b = *ToColumnBatch(MakeBatch(static_cast<int>(state.range(0))));
  std::vector<ExprPtr> keys = {Expr::Column("k")};
  for (auto _ : state) {
    auto parts = HashPartitionColumnar(b, keys, 16);
    benchmark::DoNotOptimize(parts);
  }
}
BENCHMARK(BM_HashPartitionBound)->Arg(1000)->Arg(10000);

void BM_CacheWorkerPutGet(benchmark::State& state) {
  CacheWorker cw(1LL << 30, "");
  std::string payload(4096, 'x');
  int64_t i = 0;
  for (auto _ : state) {
    ShuffleSlotKey key{1, 0, static_cast<int>(i % 1024), 1,
                       static_cast<int>(i / 1024)};
    (void)cw.Put(key, payload, 1);
    auto got = cw.Get(key);
    benchmark::DoNotOptimize(got);
    ++i;
  }
}
BENCHMARK(BM_CacheWorkerPutGet);

void BM_EventEngine(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventEngine e;
    int64_t count = 0;
    for (int i = 0; i < n; ++i) {
      e.ScheduleAt((i * 37) % n, [&count] { ++count; });
    }
    e.Run();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_EventEngine)->Arg(1000)->Arg(100000);

void BM_ParseQ9(benchmark::State& state) {
  const std::string q9 =
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
  for (auto _ : state) {
    auto stmt = ParseSelect(q9);
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseQ9);

void BM_PlanQ9(benchmark::State& state) {
  Catalog catalog;
  TpchConfig cfg;
  cfg.scale_factor = 0.001;
  (void)GenerateTpch(cfg, &catalog);
  auto stmt = ParseSelect(
      "select n_name, count(*) as n from tpch_nation n "
      "join tpch_supplier s on n.n_nationkey = s.s_nationkey "
      "group by n_name order by n desc limit 10");
  for (auto _ : state) {
    auto plan = PlanQuery(**stmt, catalog, PlannerConfig{});
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanQ9);

Batch MakeShuffledBatch(int rows) {
  Batch b = MakeBatch(rows);
  // Shuffle rows deterministically.
  for (std::size_t i = b.rows.size(); i > 1; --i) {
    std::swap(b.rows[i - 1], b.rows[(i * 7919) % i]);
  }
  return b;
}

void BM_SortOperator(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Batch b = MakeShuffledBatch(rows);
    std::vector<Batch> batches;
    Schema schema = b.schema;
    batches.push_back(std::move(b));
    state.ResumeTiming();
    auto op = MakeSort(MakeBatchSource(schema, std::move(batches)),
                       {SortKey{Expr::Column("k"), true}});
    auto out = CollectAll(op.get());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SortOperator)->Arg(1000)->Arg(20000);

void BM_HashAggregateOperator(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Batch b = MakeBatch(rows);
    std::vector<Batch> batches;
    Schema schema = b.schema;
    batches.push_back(std::move(b));
    state.ResumeTiming();
    auto op = MakeHashAggregate(
        MakeBatchSource(schema, std::move(batches)), {Expr::Column("s")},
        {"s"}, {AggSpec{AggKind::kSum, Expr::Column("v"), "total"}});
    auto out = CollectAll(op.get());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HashAggregateOperator)->Arg(1000)->Arg(20000);

// ---- Columnar kernels -------------------------------------------------
// BM_Vec* runs filter, project, hash aggregate, hash partitioning and the
// serde boundary over typed ColumnVectors + selection vectors.

Batch MakeVecBatch(int rows) {
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64},
                     {"v", DataType::kFloat64},
                     {"s", DataType::kString}});
  b.rows.reserve(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    b.rows.push_back({Value(static_cast<int64_t>((i * 7919) % 1000)),
                      Value(i * 0.125),
                      Value("s" + std::to_string(i % 32))});
  }
  return b;
}

ExprPtr VecPredicate() {
  return Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                      Expr::Literal(Value(int64_t{500})));
}

void BM_VecFilterColumnar(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const Batch base = MakeVecBatch(rows);
  const ColumnBatch cbase = *ToColumnBatch(base);
  ExprPtr pred = VecPredicate();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ColumnBatch> batches;
    batches.push_back(cbase);
    state.ResumeTiming();
    auto op = MakeFilter(
        MakeColumnBatchSource(cbase.schema, std::move(batches)), pred);
    // The columnar filter emits a selection vector over the input's
    // storage — no survivor rows are copied anywhere.
    std::size_t kept = 0;
    (void)op->Open();
    while (true) {
      auto nxt = op->Next();
      if (!nxt.ok() || !nxt->has_value()) break;
      kept += (*nxt)->num_rows();
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_VecFilterColumnar)->Arg(4096)->Arg(65536);

void BM_VecProjectColumnar(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const Batch base = MakeVecBatch(rows);
  const ColumnBatch cbase = *ToColumnBatch(base);
  std::vector<ExprPtr> exprs = {
      Expr::Binary(BinaryOp::kAdd, Expr::Column("k"),
                   Expr::Literal(Value(int64_t{1}))),
      Expr::Binary(BinaryOp::kMul, Expr::Column("v"), Expr::Column("v"))};
  std::vector<std::string> names = {"k1", "v2"};
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ColumnBatch> batches;
    batches.push_back(cbase);
    state.ResumeTiming();
    auto op = MakeProject(
        MakeColumnBatchSource(cbase.schema, std::move(batches)), exprs,
        names);
    (void)op->Open();
    while (true) {
      auto nxt = op->Next();
      if (!nxt.ok() || !nxt->has_value()) break;
      benchmark::DoNotOptimize(*nxt);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_VecProjectColumnar)->Arg(4096)->Arg(65536);

void BM_VecHashAggregateColumnar(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const Batch base = MakeVecBatch(rows);
  const ColumnBatch cbase = *ToColumnBatch(base);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ColumnBatch> batches;
    batches.push_back(cbase);
    state.ResumeTiming();
    auto op = MakeHashAggregate(
        MakeColumnBatchSource(cbase.schema, std::move(batches)),
        {Expr::Column("s")}, {"s"},
        {AggSpec{AggKind::kSum, Expr::Column("k"), "sum_k"},
         AggSpec{AggKind::kCount, nullptr, "cnt"}});
    auto out = CollectAll(op.get());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_VecHashAggregateColumnar)->Arg(4096)->Arg(65536);

void BM_VecHashPartitionColumnar(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const ColumnBatch cbase = *ToColumnBatch(MakeVecBatch(rows));
  std::vector<ExprPtr> keys = {Expr::Column("k")};
  for (auto _ : state) {
    auto parts = HashPartitionColumnar(cbase, keys, 16);
    benchmark::DoNotOptimize(parts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_VecHashPartitionColumnar)->Arg(4096)->Arg(65536);

// Composite-int64-keyed batch (the realistic join/group-by shape —
// TPC-H joins on (orderkey, ...), Q9 groups by (nation, year)): two
// int64 key columns forming `distinct` distinct pairs, one float64
// payload.
Batch MakeIntPairKeyBatch(int rows, int distinct) {
  Batch b;
  b.schema = Schema({{"k1", DataType::kInt64},
                     {"k2", DataType::kInt64},
                     {"v", DataType::kFloat64}});
  b.rows.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    const int64_t k = (i * 7919) % distinct;
    b.rows.push_back({Value(k), Value(k * 31 + 7), Value(i * 0.5)});
  }
  return b;
}

// Columnar HashJoinOp over the composite-int64 PK-FK shape: every probe
// row matches exactly one build row.
void BM_VecHashJoinColumnar(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const ColumnBatch left = *ToColumnBatch(MakeIntPairKeyBatch(rows, rows));
  const ColumnBatch right = *ToColumnBatch(MakeIntPairKeyBatch(rows, rows));
  const std::vector<ExprPtr> keys = {Expr::Column("k1"), Expr::Column("k2")};
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ColumnBatch> lb = {left};
    std::vector<ColumnBatch> rb = {right};
    state.ResumeTiming();
    auto op = MakeHashJoin(MakeColumnBatchSource(left.schema, std::move(lb)),
                           MakeColumnBatchSource(right.schema, std::move(rb)),
                           keys, keys, JoinType::kInner);
    auto out = CollectAllColumnar(op.get());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_VecHashJoinColumnar)->Arg(1000)->Arg(10000);

// A string predicate over a 1,024-row kString column against a literal:
// the whole filter (predicate evaluation plus selection build).
void RunStringFilter(benchmark::State& state, const ExprPtr& pred) {
  const ColumnBatch cbase = *ToColumnBatch(MakeVecBatch(1024));
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ColumnBatch> batches = {cbase};
    state.ResumeTiming();
    auto op = MakeFilter(
        MakeColumnBatchSource(cbase.schema, std::move(batches)), pred);
    auto out = CollectAllColumnar(op.get());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}

void BM_VecFilterStringCompare(benchmark::State& state) {
  RunStringFilter(state, Expr::Binary(BinaryOp::kLt, Expr::Column("s"),
                                      Expr::Literal(Value("s16"))));
}
BENCHMARK(BM_VecFilterStringCompare);

void BM_VecFilterLike(benchmark::State& state) {
  RunStringFilter(state, Expr::Binary(BinaryOp::kLike, Expr::Column("s"),
                                      Expr::Literal(Value("%1%"))));
}
BENCHMARK(BM_VecFilterLike);

// The shuffle boundary: the wire format decoded straight into typed
// columns and encoded straight from them (near-memcpy for the int-heavy
// shape).
void BM_VecDeserializeIntsColumnar(benchmark::State& state) {
  std::string bytes =
      SerializeBatch(MakeIntBatch(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto b = DeserializeColumnBatch(bytes);
    benchmark::DoNotOptimize(b);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_VecDeserializeIntsColumnar)->Arg(10000);

void BM_VecSerializeIntsColumnar(benchmark::State& state) {
  const ColumnBatch cb =
      *ToColumnBatch(MakeIntBatch(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    std::string bytes = SerializeColumnBatch(cb);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(SerializeColumnBatch(cb).size()));
}
BENCHMARK(BM_VecSerializeIntsColumnar)->Arg(10000);

// ---------------------------------------------------------------------
// Morsel-driven streaming: the columnar sort / window / merge join
// builds, plus the whole-slice vs morselized pipeline shapes; the
// peak_rows counter reports resident rows at the source boundary (slice
// size vs one morsel).

void BM_MorselSortColumnar(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const ColumnBatch cbase = *ToColumnBatch(MakeVecBatch(rows));
  std::vector<SortKey> keys;
  keys.push_back({Expr::Column("s"), true});
  keys.push_back({Expr::Column("k"), false});
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ColumnBatch> batches;
    batches.push_back(cbase);
    state.ResumeTiming();
    // The columnar sort emits a permutation selection over the input
    // storage — rows are never gathered.
    auto op = MakeSort(
        MakeColumnBatchSource(cbase.schema, std::move(batches)), keys);
    (void)op->Open();
    auto out = op->Next();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_MorselSortColumnar)->Arg(4096)->Arg(65536);

void BM_MorselWindowColumnar(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const ColumnBatch cbase = *ToColumnBatch(MakeVecBatch(rows));
  std::vector<ExprPtr> part = {Expr::Column("s")};
  std::vector<SortKey> order;
  order.push_back({Expr::Column("k"), true});
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ColumnBatch> batches;
    batches.push_back(cbase);
    state.ResumeTiming();
    auto op = MakeWindow(
        MakeColumnBatchSource(cbase.schema, std::move(batches)), part, order,
        WindowFunc::kSum, Expr::Column("v"), "w");
    (void)op->Open();
    auto out = op->Next();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_MorselWindowColumnar)->Arg(4096)->Arg(65536);

// Sorted-key inputs for the merge join (dup keys + gaps).
Batch MakeMorselSortedBatch(int rows, const char* prefix) {
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64}, {"p", DataType::kString}});
  int64_t k = 0;
  for (int i = 0; i < rows; ++i) {
    k += (i * 2654435761u >> 13) % 3 == 0 ? 1 : 0;
    b.rows.push_back({Value(k), Value(prefix + std::to_string(i % 64))});
  }
  return b;
}

void BM_MorselMergeJoinColumnar(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const ColumnBatch left = *ToColumnBatch(MakeMorselSortedBatch(rows, "L"));
  const ColumnBatch right =
      *ToColumnBatch(MakeMorselSortedBatch(rows / 2, "R"));
  std::vector<ExprPtr> lk = {Expr::Column("k")};
  std::vector<ExprPtr> rk = {Expr::Column("k")};
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ColumnBatch> lb, rb;
    lb.push_back(left);
    rb.push_back(right);
    state.ResumeTiming();
    auto op = MakeMergeJoin(
        MakeColumnBatchSource(left.schema, std::move(lb)),
        MakeColumnBatchSource(right.schema, std::move(rb)), lk, rk);
    (void)op->Open();
    auto out = op->Next();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_MorselMergeJoinColumnar)->Arg(4096)->Arg(65536);

// The scan-task pipeline shapes: whole-slice (the task slice as one
// store slice + filter/project over one big batch) vs morselized
// (TableMorselSource streaming 1K-row morsels through the same steps).
// peak_rows is the resident-row footprint at the source boundary.
std::shared_ptr<Table> MakeMorselTable(int rows) {
  return std::make_shared<Table>("bench", *ToColumnBatch(MakeVecBatch(rows)));
}

std::vector<MorselStep> MorselBenchSteps() {
  std::vector<MorselStep> steps;
  MorselStep f;
  f.kind = MorselStep::Kind::kFilter;
  f.predicate = VecPredicate();
  steps.push_back(std::move(f));
  MorselStep p;
  p.kind = MorselStep::Kind::kProject;
  p.exprs = {Expr::Binary(BinaryOp::kAdd, Expr::Column("k"),
                          Expr::Literal(Value(int64_t{7}))),
             Expr::Binary(BinaryOp::kMul, Expr::Column("v"),
                          Expr::Column("v"))};
  p.names = {"k7", "v2"};
  steps.push_back(std::move(p));
  return steps;
}

std::size_t DrainMorselBench(PhysicalOperator* op) {
  (void)op->Open();
  std::size_t kept = 0;
  while (true) {
    auto nxt = op->Next();
    if (!nxt.ok() || !nxt->has_value()) break;
    kept += (*nxt)->num_rows();
  }
  return kept;
}

void BM_MorselPipelineWholeSlice(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  auto table = MakeMorselTable(rows);
  const auto steps = MorselBenchSteps();
  for (auto _ : state) {
    const auto [begin, end] = table->TaskSliceBounds(0, 1);
    std::vector<ColumnBatch> batches;
    batches.push_back(table->data().SliceRows(begin, end - begin));
    auto op = MakeProject(
        MakeFilter(MakeColumnBatchSource(table->schema, std::move(batches)),
                   steps[0].predicate),
        steps[1].exprs, steps[1].names);
    benchmark::DoNotOptimize(DrainMorselBench(op.get()));
  }
  state.counters["peak_rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_MorselPipelineWholeSlice)->Arg(65536)->Arg(262144);

void BM_MorselPipelineStreamed(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  auto table = MakeMorselTable(rows);
  for (auto _ : state) {
    auto op = MakeParallelMorselPipeline(
        MakeTableMorselSource(table, 0, 1, table->schema, kDefaultMorselRows),
        MorselBenchSteps(), nullptr, 1);
    benchmark::DoNotOptimize(DrainMorselBench(op.get()));
  }
  state.counters["peak_rows"] = static_cast<double>(kDefaultMorselRows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_MorselPipelineStreamed)->Arg(65536)->Arg(262144);

void BM_MorselPipelineParallel(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int lanes = static_cast<int>(state.range(1));
  auto table = MakeMorselTable(rows);
  ThreadPool pool(static_cast<std::size_t>(lanes));
  for (auto _ : state) {
    auto op = MakeParallelMorselPipeline(
        MakeTableMorselSource(table, 0, 1, table->schema, kDefaultMorselRows),
        MorselBenchSteps(), &pool, lanes);
    benchmark::DoNotOptimize(DrainMorselBench(op.get()));
  }
  state.counters["peak_rows"] =
      static_cast<double>(kDefaultMorselRows) * 2 * lanes;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_MorselPipelineParallel)
    ->Args({262144, 2})
    ->Args({262144, 4});

}  // namespace
}  // namespace swift

BENCHMARK_MAIN();
