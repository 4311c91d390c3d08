// Google-benchmark micro-benchmarks of the library's hot components:
// DAG construction, graphlet partitioning, expression evaluation, batch
// serde, hash partitioning, Cache Worker operations, the event engine,
// SQL parsing/planning, and the sort/aggregate operators.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>

#include "common/hash64.h"
#include "common/thread_pool.h"
#include "dag/dag_builder.h"
#include "exec/bound_expr.h"
#include "exec/morsel.h"
#include "exec/hash_table.h"
#include "exec/key_encoder.h"
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

void BM_ExpressionEvalInterpreted(benchmark::State& state) {
  Schema schema({{"a", DataType::kFloat64}, {"b", DataType::kFloat64}});
  Row row = {Value(3.5), Value(0.1)};
  auto e = MakeDiscountExpr();
  for (auto _ : state) {
    auto v = e->Evaluate(schema, row);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ExpressionEvalInterpreted);

void BM_ExpressionEvalBound(benchmark::State& state) {
  Schema schema({{"a", DataType::kFloat64}, {"b", DataType::kFloat64}});
  Row row = {Value(3.5), Value(0.1)};
  auto bound = *Bind(MakeDiscountExpr(), schema);
  for (auto _ : state) {
    auto v = bound->Evaluate(row);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ExpressionEvalBound);

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

// Replicates the pre-binding HashPartition loop: every key access goes
// through Expr::Evaluate (name lookup per row) and partitions grow with
// unreserved push_backs.
void BM_HashPartitionInterpreted(benchmark::State& state) {
  Batch b = MakeBatch(static_cast<int>(state.range(0)));
  std::vector<ExprPtr> keys = {Expr::Column("k")};
  for (auto _ : state) {
    std::vector<Batch> out(16);
    for (auto& p : out) p.schema = b.schema;
    for (const Row& row : b.rows) {
      Row key;
      bool has_null = false;
      for (const auto& k : keys) {
        auto v = k->Evaluate(b.schema, row);
        has_null = has_null || v->is_null();
        key.push_back(std::move(*v));
      }
      const std::size_t p = has_null ? 0 : HashRow(key) % 16;
      out[p].rows.push_back(row);
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HashPartitionInterpreted)->Arg(1000)->Arg(10000);

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

// Replicates the pre-binding SortOp key pass: one Expr::Evaluate per
// row per key (name lookup each time), then the same permutation sort.
void BM_SortInterpreted(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  std::vector<SortKey> keys = {SortKey{Expr::Column("k"), true}};
  for (auto _ : state) {
    state.PauseTiming();
    Batch b = MakeShuffledBatch(rows);
    state.ResumeTiming();
    std::vector<Row> keyrows;
    keyrows.reserve(b.rows.size());
    for (const Row& r : b.rows) {
      Row k;
      for (const SortKey& key : keys) {
        k.push_back(*key.expr->Evaluate(b.schema, r));
      }
      keyrows.push_back(std::move(k));
    }
    std::vector<std::size_t> perm(b.rows.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(),
                     [&](std::size_t a, std::size_t c) {
                       for (std::size_t k = 0; k < keys.size(); ++k) {
                         int cmp = keyrows[a][k].Compare(keyrows[c][k]);
                         if (!keys[k].ascending) cmp = -cmp;
                         if (cmp != 0) return cmp < 0;
                       }
                       return false;
                     });
    std::vector<Row> sorted;
    sorted.reserve(b.rows.size());
    for (std::size_t i : perm) sorted.push_back(std::move(b.rows[i]));
    benchmark::DoNotOptimize(sorted);
  }
}
BENCHMARK(BM_SortInterpreted)->Arg(1000)->Arg(20000);

// Same key pass and permutation sort, but with keys bound once.
void BM_SortBound(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  std::vector<SortKey> keys = {SortKey{Expr::Column("k"), true}};
  for (auto _ : state) {
    state.PauseTiming();
    Batch b = MakeShuffledBatch(rows);
    state.ResumeTiming();
    std::vector<BoundExprPtr> bound;
    for (const SortKey& key : keys) bound.push_back(*Bind(key.expr, b.schema));
    std::vector<Row> keyrows;
    keyrows.reserve(b.rows.size());
    Row k;
    for (const Row& r : b.rows) {
      (void)EvalBoundKeys(bound, r, &k);
      keyrows.push_back(k);
    }
    std::vector<std::size_t> perm(b.rows.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::stable_sort(perm.begin(), perm.end(),
                     [&](std::size_t a, std::size_t c) {
                       for (std::size_t kk = 0; kk < keys.size(); ++kk) {
                         int cmp = keyrows[a][kk].Compare(keyrows[c][kk]);
                         if (!keys[kk].ascending) cmp = -cmp;
                         if (cmp != 0) return cmp < 0;
                       }
                       return false;
                     });
    std::vector<Row> sorted;
    sorted.reserve(b.rows.size());
    for (std::size_t i : perm) sorted.push_back(std::move(b.rows[i]));
    benchmark::DoNotOptimize(sorted);
  }
}
BENCHMARK(BM_SortBound)->Arg(1000)->Arg(20000);

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

// Replicates the pre-binding aggregate inner loop: group key and agg
// argument both re-resolve their columns by name on every row.
void BM_HashAggregateInterpreted(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  ExprPtr group = Expr::Column("s");
  ExprPtr arg = Expr::Column("v");
  for (auto _ : state) {
    state.PauseTiming();
    Batch b = MakeBatch(rows);
    state.ResumeTiming();
    std::unordered_map<std::string, double> table;
    for (const Row& r : b.rows) {
      Value k = *group->Evaluate(b.schema, r);
      Value v = *arg->Evaluate(b.schema, r);
      table[k.str()] += v.AsDouble();
    }
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_HashAggregateInterpreted)->Arg(1000)->Arg(20000);

// Same table update, but group key and argument bound once.
void BM_HashAggregateBound(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  ExprPtr group = Expr::Column("s");
  ExprPtr arg = Expr::Column("v");
  for (auto _ : state) {
    state.PauseTiming();
    Batch b = MakeBatch(rows);
    state.ResumeTiming();
    auto bg = *Bind(group, b.schema);
    auto ba = *Bind(arg, b.schema);
    std::unordered_map<std::string, double> table;
    for (const Row& r : b.rows) {
      Value k = *bg->Evaluate(r);
      Value v = *ba->Evaluate(r);
      table[k.str()] += v.AsDouble();
    }
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_HashAggregateBound)->Arg(1000)->Arg(20000);

// ---- Flat hash kernels (PR 5): legacy row-map vs swiss-table pairs --
//
// Each pair runs the pre-flat-table operator body (frozen verbatim from
// git history: node-based std::unordered_map/_multimap keyed by boxed
// Row, HashRow identity hashing, a fresh boxed key Row per build/probe
// row) against the live operator body (KeyEncoder + FlatKeyTable + the
// shared wyhash-style mixer), inline over identical prebuilt batches.
// Surrounding work — draining the build input, aggregate state updates,
// output emission — is the same on both sides, so the delta is the
// kernel swap itself.

struct BenchRowHash {
  std::size_t operator()(const Row& r) const { return HashRow(r); }
};
struct BenchRowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

bool BenchKeyHasNull(const Row& k) {
  for (const Value& v : k) {
    if (v.is_null()) return true;
  }
  return false;
}

// The legacy operators boxed every key into a fresh Row (EvalKeys in
// the pre-PR operators.cc).
Row BenchEvalKeys(const std::vector<BoundExprPtr>& keys, const Row& row) {
  Row k;
  k.reserve(keys.size());
  for (const BoundExprPtr& e : keys) k.push_back(*e->Evaluate(row));
  return k;
}

// Verbatim replica of the operator-internal AggState's SUM path, shared
// by both aggregate bench sides so state-update cost cancels out.
struct BenchAggState {
  double sum = 0.0;
  int64_t count = 0;
  bool all_int = true;
  Value min;
  Value max;

  void UpdateSum(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.is_numeric()) {
      sum += v.AsDouble();
      if (!v.is_int64()) all_int = false;
    } else {
      all_int = false;
    }
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }

  Value FinishSum() const {
    if (count == 0) return Value::Null();
    return all_int ? Value(static_cast<int64_t>(sum)) : Value(sum);
  }
};

// Int64-keyed batch: `distinct` distinct keys cycling over `rows` rows
// (duplicates exercise the join chains and aggregate groups), one
// float64 payload.
Batch MakeIntKeyBatch(int rows, int distinct) {
  Batch b;
  b.schema = Schema({{"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  b.rows.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    b.rows.push_back(
        {Value(static_cast<int64_t>((i * 7919) % distinct)), Value(i * 0.5)});
  }
  return b;
}

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

constexpr int kJoinRows = 10000;
constexpr int kAggDistinct = 512;

// Legacy HashJoinOp::Open body: per build row a boxed key Row, a map
// node, and the row moved into it; probe via equal_range. PK-FK shape:
// the build side's composite keys are unique, every probe matches
// exactly once.
void BM_HashJoinRowMapInt(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Batch left = MakeIntPairKeyBatch(rows, rows);
  Batch right = MakeIntPairKeyBatch(rows, rows);
  std::vector<ExprPtr> keys = {Expr::Column("k1"), Expr::Column("k2")};
  auto bound_left = *BindAll(keys, left.schema);
  auto bound_right = *BindAll(keys, right.schema);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Row> build_input = right.rows;  // the drained build side
    state.ResumeTiming();
    std::unordered_multimap<Row, Row, BenchRowHash, BenchRowEq> build;
    for (Row& r : build_input) {
      Row key = BenchEvalKeys(bound_right, r);
      if (BenchKeyHasNull(key)) continue;
      build.emplace(std::move(key), std::move(r));
    }
    std::vector<Row> out;
    for (const Row& l : left.rows) {
      Row key = BenchEvalKeys(bound_left, l);
      if (BenchKeyHasNull(key)) continue;
      auto [lo, hi] = build.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        Row o = l;
        o.insert(o.end(), it->second.begin(), it->second.end());
        out.push_back(std::move(o));
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_HashJoinRowMapInt)->Arg(1000)->Arg(kJoinRows);

// Live HashJoinOp::Open body: build rows stay in the drained vector,
// encoded keys in the flat table, duplicates chained through next_row.
void BM_HashJoinFlatInt(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Batch left = MakeIntPairKeyBatch(rows, rows);
  Batch right = MakeIntPairKeyBatch(rows, rows);
  std::vector<ExprPtr> keys = {Expr::Column("k1"), Expr::Column("k2")};
  auto bound_left = *BindAll(keys, left.schema);
  auto bound_right = *BindAll(keys, right.schema);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Row> build_rows = right.rows;  // the drained build side
    state.ResumeTiming();
    FlatKeyTable table(build_rows.size());
    std::vector<int32_t> chain_head;
    std::vector<int32_t> chain_tail;
    std::vector<int32_t> next_row(build_rows.size(), -1);
    KeyEncoder enc;
    std::vector<uint32_t> rcols, lcols;
    (void)KeyEncoder::ColumnOrdinals(bound_right, &rcols);
    (void)KeyEncoder::ColumnOrdinals(bound_left, &lcols);
    for (std::size_t i = 0; i < build_rows.size(); ++i) {
      bool has_null = false;
      std::string_view bytes;
      (void)enc.EncodeColumns(build_rows[i], rcols, &bytes, &has_null);
      if (has_null) continue;
      const FlatKeyTable::FindResult r =
          table.FindOrInsert(bytes, KeyEncoder::HashEncoded(bytes));
      const int32_t row = static_cast<int32_t>(i);
      if (r.inserted) {
        chain_head.push_back(row);
        chain_tail.push_back(row);
      } else {
        next_row[chain_tail[r.index]] = row;
        chain_tail[r.index] = row;
      }
    }
    std::vector<Row> out;
    for (const Row& l : left.rows) {
      bool has_null = false;
      std::string_view bytes;
      (void)enc.EncodeColumns(l, lcols, &bytes, &has_null);
      if (has_null) continue;
      const int64_t dense = table.Find(bytes, KeyEncoder::HashEncoded(bytes));
      if (dense < 0) continue;
      for (int32_t r = chain_head[static_cast<std::size_t>(dense)]; r >= 0;
           r = next_row[r]) {
        const Row& b = build_rows[r];
        Row o;
        o.reserve(l.size() + b.size());
        o.insert(o.end(), l.begin(), l.end());
        o.insert(o.end(), b.begin(), b.end());
        out.push_back(std::move(o));
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_HashJoinFlatInt)->Arg(1000)->Arg(kJoinRows);

// Legacy HashAggregateOp body: Row-keyed unordered_map of AggState
// vectors, first-seen key order, output looked up back through the map.
// Args are {rows, distinct groups}: 512 groups is the probe-heavy
// regime, rows-scale groups the insert-heavy (post-shuffle) regime.
void BM_HashAggregateRowMapInt(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int distinct = static_cast<int>(state.range(1));
  Batch b = MakeIntPairKeyBatch(rows, distinct);
  std::vector<ExprPtr> groups = {Expr::Column("k1"), Expr::Column("k2")};
  auto bound_groups = *BindAll(groups, b.schema);
  auto bound_arg = *Bind(Expr::Column("v"), b.schema);
  for (auto _ : state) {
    std::unordered_map<Row, std::vector<BenchAggState>, BenchRowHash,
                       BenchRowEq>
        table;
    std::vector<Row> key_order;
    Row key;
    for (const Row& r : b.rows) {
      (void)EvalBoundKeys(bound_groups, r, &key);
      auto it = table.find(key);
      if (it == table.end()) {
        it = table.emplace(key, std::vector<BenchAggState>(1)).first;
        key_order.push_back(key);
      }
      it->second[0].UpdateSum(*bound_arg->Evaluate(r));
    }
    std::vector<Row> out;
    for (const Row& k : key_order) {
      const auto& states = table[k];
      Row o = k;
      o.push_back(states[0].FinishSum());
      out.push_back(std::move(o));
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_HashAggregateRowMapInt)
    ->Args({20000, kAggDistinct})
    ->Args({20000, 16384});

// Live HashAggregateOp body: flat table plus dense state/key vectors
// addressed by the key's table index.
void BM_HashAggregateFlatInt(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int distinct = static_cast<int>(state.range(1));
  Batch b = MakeIntPairKeyBatch(rows, distinct);
  std::vector<ExprPtr> groups = {Expr::Column("k1"), Expr::Column("k2")};
  auto bound_groups = *BindAll(groups, b.schema);
  auto bound_arg = *Bind(Expr::Column("v"), b.schema);
  for (auto _ : state) {
    FlatKeyTable table;
    std::vector<BenchAggState> states;
    std::vector<Row> group_keys;
    KeyEncoder enc;
    std::vector<uint32_t> gcols;
    (void)KeyEncoder::ColumnOrdinals(bound_groups, &gcols);
    for (const Row& r : b.rows) {
      bool has_null = false;
      std::string_view bytes;
      (void)enc.EncodeColumns(r, gcols, &bytes, &has_null);
      const FlatKeyTable::FindResult fr =
          table.FindOrInsert(bytes, KeyEncoder::HashEncoded(bytes));
      if (fr.inserted) {
        states.emplace_back();
        Row gk;
        gk.reserve(gcols.size());
        for (const uint32_t c : gcols) gk.push_back(r[c]);
        group_keys.push_back(std::move(gk));
      }
      states[fr.index].UpdateSum(*bound_arg->Evaluate(r));
    }
    std::vector<Row> out;
    out.reserve(group_keys.size());
    for (std::size_t g = 0; g < group_keys.size(); ++g) {
      Row o = std::move(group_keys[g]);
      o.push_back(states[g].FinishSum());
      out.push_back(std::move(o));
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_HashAggregateFlatInt)
    ->Args({20000, kAggDistinct})
    ->Args({20000, 16384});

// Legacy HashPartition body: identity HashRow % n (plus the same
// counting pass and reserve the live version does).
void BM_HashPartitionRowHashInt(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Batch b = MakeIntKeyBatch(rows, rows);
  std::vector<ExprPtr> keys = {Expr::Column("k")};
  auto bound = *BindAll(keys, b.schema);
  constexpr std::size_t n = 16;
  for (auto _ : state) {
    std::vector<std::size_t> dest(b.rows.size(), 0);
    std::vector<std::size_t> counts(n, 0);
    Row key;
    for (std::size_t i = 0; i < b.rows.size(); ++i) {
      (void)EvalBoundKeys(bound, b.rows[i], &key);
      const std::size_t p = HashRow(key) % n;
      dest[i] = p;
      ++counts[p];
    }
    std::vector<Batch> out(n);
    for (std::size_t p = 0; p < n; ++p) {
      out[p].schema = b.schema;
      out[p].rows.reserve(counts[p]);
    }
    for (std::size_t i = 0; i < b.rows.size(); ++i) {
      out[dest[i]].rows.push_back(b.rows[i]);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_HashPartitionRowHashInt)->Arg(1000)->Arg(10000);

// Live HashPartition body: normalized hashing (no byte materialization)
// + the shared mixer + multiply-shift range reduction.
void BM_HashPartitionFlatInt(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Batch b = MakeIntKeyBatch(rows, rows);
  std::vector<ExprPtr> keys = {Expr::Column("k")};
  auto bound = *BindAll(keys, b.schema);
  constexpr std::size_t n = 16;
  std::vector<uint32_t> cols;
  (void)KeyEncoder::ColumnOrdinals(bound, &cols);
  for (auto _ : state) {
    std::vector<std::size_t> dest(b.rows.size(), 0);
    std::vector<std::size_t> counts(n, 0);
    for (std::size_t i = 0; i < b.rows.size(); ++i) {
      bool has_null = false;
      uint64_t h = 0;
      (void)KeyEncoder::HashColumns(b.rows[i], cols, &h, &has_null);
      const std::size_t p =
          has_null ? 0 : RangeReduce(h, static_cast<uint32_t>(n));
      dest[i] = p;
      ++counts[p];
    }
    std::vector<Batch> out(n);
    for (std::size_t p = 0; p < n; ++p) {
      out[p].schema = b.schema;
      out[p].rows.reserve(counts[p]);
    }
    for (std::size_t i = 0; i < b.rows.size(); ++i) {
      out[dest[i]].rows.push_back(b.rows[i]);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_HashPartitionFlatInt)->Arg(1000)->Arg(10000);

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

// The scan-task pipeline shapes: whole-slice (Table::TaskSlice +
// ToColumnBatch + filter/project over one big batch) vs morselized
// (TableMorselSource streaming 1K-row morsels through the same steps).
// peak_rows is the resident-row footprint at the source boundary.
std::shared_ptr<Table> MakeMorselTable(int rows) {
  auto t = std::make_shared<Table>();
  t->name = "bench";
  t->schema = Schema({{"k", DataType::kInt64},
                      {"v", DataType::kFloat64},
                      {"s", DataType::kString}});
  Batch b = MakeVecBatch(rows);
  t->rows = std::move(b.rows);
  return t;
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
    Batch slice = table->TaskSlice(0, 1);
    auto cb = ToColumnBatch(slice);
    std::vector<ColumnBatch> batches;
    batches.push_back(*std::move(cb));
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
