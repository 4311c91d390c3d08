// Quickstart: build a table, run SQL on an in-process Swift cluster,
// and look at how the job was planned and partitioned.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "core/swift.h"

using namespace swift;

int main() {
  // An in-process Swift deployment: 4 simulated machines, pre-launched
  // executors, one Cache Worker per machine.
  SwiftSystem swift_system;

  // Register a small table.
  auto orders = MakeTable("orders",
                          Schema({{"order_id", DataType::kInt64},
                                  {"customer", DataType::kString},
                                  {"amount", DataType::kFloat64}}),
                          {
                              {Value(int64_t{1}), Value("alice"), Value(120.5)},
                              {Value(int64_t{2}), Value("bob"), Value(80.0)},
                              {Value(int64_t{3}), Value("alice"), Value(42.0)},
                              {Value(int64_t{4}), Value("carol"), Value(99.9)},
                              {Value(int64_t{5}), Value("bob"), Value(10.0)},
                          });
  if (!orders.ok()) {
    std::fprintf(stderr, "table: %s\n", orders.status().ToString().c_str());
    return 1;
  }
  if (auto st = swift_system.catalog()->Register(*orders); !st.ok()) {
    std::fprintf(stderr, "register: %s\n", st.ToString().c_str());
    return 1;
  }

  // Run a query end to end: parse -> plan -> graphlets -> gang
  // scheduling -> in-memory shuffle -> result.
  const char* sql =
      "select customer, count(*) as orders, sum(amount) as total "
      "from orders group by customer order by total desc";
  auto result = swift_system.Query(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", FormatBatch(*result).c_str());

  // EXPLAIN shows the distributed plan and its graphlet partitioning.
  auto explain = swift_system.Explain(sql);
  if (explain.ok()) std::printf("%s\n", explain->c_str());

  // Execution statistics of the same query.
  auto report = swift_system.QueryWithStats(sql);
  if (report.ok()) {
    std::printf("graphlets=%d tasks=%d shuffle_bytes=%lld\n",
                report->stats.graphlets, report->stats.tasks_executed,
                static_cast<long long>(
                    report->stats.shuffle.bytes_transferred));
  }
  return 0;
}
