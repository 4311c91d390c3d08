// Shuffle pressure benchmark (DESIGN.md Sec. 15): open-loop writers
// offering ~4x the Cache Worker budget against one concurrent reader,
// with spilling off and on. Writers are backpressured until the reader
// drains, so the workload completes losslessly with bounded resident
// memory. Feeds BENCH_PR8.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "shuffle/shuffle_service.h"

namespace swift {
namespace {

constexpr int kWriters = 4;
constexpr int kSlotsPerWriter = 64;
constexpr std::size_t kPayload = 8 << 10;            // 8 KiB per slot
constexpr int64_t kBudget = 512 << 10;               // 512 KiB budget
// Offered load: 4 * 64 * 8 KiB = 2 MiB = 4x the budget.

ShuffleSlotKey Key(int writer, int slot) {
  return ShuffleSlotKey{/*job=*/1, /*src_stage=*/0, writer, /*dst_stage=*/1,
                        slot};
}

struct Variant {
  const char* name;
  bool spill;
};

struct Outcome {
  int64_t puts_ok = 0;
  int64_t puts_failed = 0;
  double wall_ms = 0.0;
  CacheWorkerStats ws;
  ShuffleServiceStats ss;
};

Outcome RunVariant(const Variant& v) {
  ShuffleService::Config sc;
  sc.machines = 1;
  sc.cache_memory_per_worker = kBudget;
  sc.retain_for_recovery = false;  // reads drain memory
  sc.put_retry_budget = 1 << 20;   // drained writers never need forcing
  sc.put_wait_ms = 0.5;
  if (v.spill) {
    const auto dir = std::filesystem::temp_directory_path() /
                     (std::string("swift_bench_pressure_") + v.name);
    std::filesystem::remove_all(dir);
    sc.spill_root = dir.string();
  }
  ShuffleService service(sc);

  Outcome out;
  std::atomic<int64_t> ok{0}, failed{0};
  std::atomic<bool> writers_done{false};
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string payload(kPayload, static_cast<char>('a' + w));
      for (int s = 0; s < kSlotsPerWriter; ++s) {
        Status st = service.WritePartition(ShuffleKind::kRemote, Key(w, s),
                                           payload, /*writer_machine=*/0,
                                           /*pipelined=*/false);
        (st.ok() ? ok : failed).fetch_add(1);
      }
    });
  }

  // One reader draining round-robin; a slot that is still missing after
  // the writers finished was lost (its put failed).
  std::thread reader([&] {
    std::vector<std::pair<int, int>> pending;
    for (int w = 0; w < kWriters; ++w)
      for (int s = 0; s < kSlotsPerWriter; ++s) pending.push_back({w, s});
    while (!pending.empty()) {
      const bool done = writers_done.load();
      std::vector<std::pair<int, int>> next;
      for (const auto& [w, s] : pending) {
        auto r = service.ReadPartition(ShuffleKind::kRemote, Key(w, s),
                                       /*reader_machine=*/0,
                                       /*writer_machine=*/0);
        if (r.ok()) continue;          // drained
        if (done) continue;           // dropped for good: stop waiting
        next.push_back({w, s});
      }
      pending = std::move(next);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  for (auto& t : writers) t.join();
  writers_done.store(true);
  reader.join();

  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.puts_ok = ok.load();
  out.puts_failed = failed.load();
  out.ws = service.worker_stats();
  out.ss = service.stats();
  return out;
}

int Run() {
  bench::Header(
      "Shuffle pressure", "open-loop writers at 4x the Cache Worker budget",
      "FuxiShuffle direction (ROADMAP item 3): flow control degrades "
      "gracefully instead of dropping data or flooding the disk");

  const Variant variants[] = {
      {"no-spill", false},  // backpressure alone completes the workload
      {"spill", true},      // same workload with the disk tier available
  };

  bench::Row({"variant", "puts-ok", "lost", "wall-ms", "peak-KB", "spill-KB",
              "bp-waits", "forced"});
  for (const Variant& v : variants) {
    const Outcome o = RunVariant(v);
    bench::Row({v.name, std::to_string(o.puts_ok),
                std::to_string(o.puts_failed), bench::F(o.wall_ms, 1),
                std::to_string(o.ws.peak_memory_in_use >> 10),
                std::to_string(o.ws.spilled_bytes >> 10),
                std::to_string(o.ss.put_backpressure_waits),
                std::to_string(o.ws.forced_admits)});
  }
  std::printf(
      "\noffered load: %d writers x %d slots x %zu KiB = %lld KiB against a\n"
      "%lld KiB budget. 'lost' puts failed and their bytes never reached the\n"
      "reader; admission control must keep it at 0.\n",
      kWriters, kSlotsPerWriter, kPayload >> 10,
      static_cast<long long>(kWriters * kSlotsPerWriter * kPayload >> 10),
      static_cast<long long>(kBudget >> 10));
  return 0;
}

}  // namespace
}  // namespace swift

int main() { return swift::Run(); }
