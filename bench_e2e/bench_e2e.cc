// bench_e2e: the end-to-end benchmark of the Swift reproduction.
//
//   bench_e2e --workload <name> --seed <n> [--traced] [--json <out>]
//             [--scratch <dir>]
//   bench_e2e --smoke --workload all --seed <n>
//   bench_e2e --compare a.json b.json [--benchmark BENCHMARK.json]
//   bench_e2e --print-golden <scale factor>
//
// One process runs one workload. The timed run measures the end-to-end
// metrics with tracing off; the --traced run installs the metrics
// registry and a wall-clock TraceRecorder and derives the per-layer
// metrics and the time ledger. Both do a fixed amount of work, so a slow
// host or a slow commit runs longer rather than measuring less. Every
// metric prints as `name value unit`, every answer is checked against
// golden/, and a wrong answer makes the exit code non-zero. README.md
// holds the metric catalog and the reasons behind each workload.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/compress.h"
#include "common/crc32.h"
#include "common/hash64.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "e2e_stats.h"
#include "exec/serde.h"
#include "exec/tpch.h"
#include "obs/json.h"
#include "service/job_service.h"
#include "service/quantiles.h"
#include "shuffle/shuffle_mode.h"
#include "sql/tpch_queries.h"
#include "trace/production_trace.h"

namespace swift {
namespace e2e {
namespace {

using SteadyClock = std::chrono::steady_clock;

double Since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

constexpr double kMB = 1e6;
/// A job meets its SLO when it completes within this long of its due time.
constexpr double kSloSeconds = 0.5;
constexpr int kSetupRepeats = 3;
/// setup_s is set-up CPU time in reference units times this: seconds on a
/// host whose reference kernel takes 25 ms, about what it takes on the
/// 4-core Xeon host.
constexpr double kNominalReferenceSeconds = 0.025;
/// Gap before an open-loop arrival that leaves room to time the reference
/// kernel (about 26 ms of CPU on the 4-core Xeon host) without delaying it,
/// and the least time between two such timings, which keeps the kernel to
/// about a tenth of one core while the service runs.
constexpr std::chrono::milliseconds kReferenceSlack{60};
constexpr std::chrono::milliseconds kReferencePeriod{250};
/// Timed work: 20 passes of the 11 queries, or 20 rounds of them as
/// open-loop jobs. Either gives 220 latency samples, 11 beyond p95.
constexpr int kTimedPasses = 20;
constexpr int kTimedJobs = 220;
/// Traced passes: about 190 tasks each, so 8 give the pool queue wait
/// more than ten samples beyond p99.
constexpr int kTracedPasses = 8;
constexpr int kOverheadPasses = 3;
constexpr double kServiceRate = 12.0;  // offered jobs per second
constexpr int kWarmupJobs = 8;
constexpr int kProbeJobs = 120;
constexpr int kTenants = 4;
constexpr int kPriorityClasses = 3;
constexpr int kReplayTrials = 5;
/// TPC-H scale factor of every workload, and of the smoke run.
constexpr double kScaleFactor = 0.005;
constexpr double kSmokeSf = 0.002;
constexpr int kSmokePasses = 2;
constexpr int kSmokeJobs = 16;

enum class Kind { kTpch, kChaos, kService };

struct Workload {
  const char* name;
  Kind kind;
  bool force_remote;
  int64_t cache_bytes;  ///< per Cache Worker
  bool spill;
};

// Why each workload exists is in README.md. kScaleFactor keeps a pass of
// the suite near a second on 4 cores, so the 20 timed passes take about
// 20 s.
constexpr Workload kWorkloads[] = {
    {"tpch-local", Kind::kTpch, false, 256LL << 20, false},
    {"tpch-remote-spill", Kind::kTpch, true, 256LL << 10, true},
    {"tpch-chaos", Kind::kChaos, false, 256LL << 20, false},
    {"service-trace", Kind::kService, false, 256LL << 20, false},
};

struct Options {
  std::vector<const Workload*> workloads;
  uint64_t seed = 1;
  bool traced = false;
  bool smoke = false;
  std::string json_path;
  std::string scratch = "e2e_scratch";
};

// ---------------------------------------------------------------- host

int Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.substr(0, s.find('\0'));
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;  // ru_maxrss is KiB
}

/// User and system CPU time of the whole process (every thread). The
/// gated CPU metrics count user time only: on a shared VM the kernel time
/// of the same spilling pass varied 4x between runs, while its user time
/// varied by 6%.
struct CpuTime {
  double user = 0, sys = 0;

  CpuTime operator-(const CpuTime& before) const {
    return {user - before.user, sys - before.sys};
  }
};

CpuTime ProcessCpu() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {seconds(ru.ru_utime), seconds(ru.ru_stime)};
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of this thread sorting 2^18 seeded 64-bit keys: the unit of
/// cpu_ref_per_query. The kernel shares no code with the system, so only
/// the host moves it. On a shared host the CPU time of fixed work drifts
/// as other tenants change how fast a core retires instructions: medians
/// of ten-run sets of CPU seconds per query moved by up to 17% within an
/// hour, while the same sets divided by this kernel moved by up to 6%.
double ReferenceCpuSeconds() {
  std::vector<uint64_t> keys(std::size_t{1} << 18);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t& k : keys) k = x = Mix64(x);
  const double t0 = ThreadCpuSeconds();
  std::sort(keys.begin(), keys.end());
  const double s = ThreadCpuSeconds() - t0;
  // Read the result so that the sort cannot be optimized away.
  volatile uint64_t sink = keys[keys.size() / 2];
  (void)sink;
  return s;
}

// ------------------------------------------------------------- answers

struct Query {
  int q = 0;
  std::string sql;
};

struct Golden {
  uint32_t digest = 0;
  std::size_t rows = 0;
};

/// CRC-32C of the serialized answer without its 4-byte footer. The footer
/// is itself the CRC-32C of what precedes it, so a CRC over the whole
/// buffer would be the same constant for every answer.
uint32_t AnswerDigest(const Batch& b) {
  const std::string wire = SerializeBatch(b);
  return Crc32(std::string_view(wire).substr(0, wire.size() - 4));
}

std::string SfName(double sf) { return StrFormat("%g", sf); }

Result<std::map<int, Golden>> LoadGolden(const std::string& dir, double sf) {
  const std::string path = dir + "/sf" + SfName(sf) + ".txt";
  std::ifstream in(path);
  if (!in) return Status::NotFound("no golden answers at " + path);
  std::map<int, Golden> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    int q = 0;
    std::string hex;
    std::size_t rows = 0;
    if (!(fields >> q >> hex >> rows) || hex.size() > 8 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      return Status::InvalidArgument("malformed golden line in " + path + ": " +
                                     line);
    }
    golden[q] = Golden{static_cast<uint32_t>(std::strtoul(hex.c_str(), nullptr, 16)),
                       rows};
  }
  return golden;
}

Result<std::vector<Query>> SuiteQueries() {
  std::vector<Query> out;
  for (int q : RunnableTpchQueries()) {
    SWIFT_ASSIGN_OR_RETURN(std::string sql, TpchQuerySql(q));
    out.push_back({q, std::move(sql)});
  }
  return out;
}

Result<Catalog> GenerateTables(double sf) {
  Catalog tables;
  TpchConfig tc;
  tc.scale_factor = sf;
  SWIFT_RETURN_NOT_OK(GenerateTpch(tc, &tables));
  return tables;
}

void ShareTables(const Catalog& from, Catalog* to) {
  for (const std::string& name : from.TableNames()) {
    to->Put(from.Lookup(name).ValueOrDie());
  }
}

/// Turns `cfg` into the tpch-chaos cluster of pass `pass`. `seed` picks
/// the victims of crashes, read timeouts and bit flips. The machine loss
/// is the same on every seed: machine `pass` mod machines dies at the
/// 20th task start, which falls inside Q9 (33 tasks), the query a chaos
/// pass runs first. Only the loss makes the runtime write shuffle output
/// again, and how much depends on which query it hits: at a fixed task
/// count in a seeded order, bytes per query spread by 0.0066 over ten
/// seeds; inside Q9 they spread by under 0.001.
void ApplyChaos(uint64_t seed, int pass, LocalRuntimeConfig* cfg) {
  FaultSchedule fs;
  fs.seed = seed;
  fs.task_crash_p = 0.1;
  fs.max_task_crashes = 64;
  fs.read_timeout_p = 0.2;
  fs.corrupt_p = 0.1;
  fs.kill_machine = (pass % cfg->machines + cfg->machines) % cfg->machines;
  fs.kill_after_task_starts = 20;
  cfg->fault_schedule = fs;
  // Every recovery decision charges the task an attempt, even one that
  // re-runs nothing because its consumers already hold the output. A
  // task that crashed once and then lost its machine has spent two, and
  // the next lost-slot detection exhausts the default budget of 3: 0.2 to
  // 0.6% of queries fail that way. Five attempts let every query finish.
  cfg->max_task_attempts = 5;
  // Injected crashes land on every machine alike, so with the default
  // threshold of 3 the read-only drain soon covers three machines. The
  // runtime keeps one machine undrained, but when the scheduled kill then
  // takes that one, no machine can take a gang and the query fails with
  // ResourceExhausted (6 of 2,200 queries in a seeded sweep). The drain is
  // meant for one sick machine, which this schedule does not model.
  cfg->health_failure_threshold = std::numeric_limits<int>::max();
}

// --------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::optional<double> spread;  ///< IQR / median of the samples summarized
};

struct Report {
  std::string workload;
  bool traced = false;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  int64_t attempted = 0;
  int64_t failed = 0;  ///< failed + rejected queries and jobs
  int64_t wrong = 0;

  void Add(std::string name, double value, std::string unit,
           std::optional<double> spread = std::nullopt) {
    metrics.push_back({std::move(name), value, std::move(unit), spread});
  }

  /// A percentile of `samples` times `scale`. An idle layer (no samples)
  /// reads 0; a tail percentile with fewer than ten samples beyond it is
  /// omitted rather than reported from too few points.
  void AddPercentile(std::string name, const std::vector<double>& samples,
                     double q, double scale, std::string unit) {
    if (samples.empty()) return Add(std::move(name), 0.0, std::move(unit));
    std::optional<double> v =
        q <= 0.5 ? std::optional<double>(Percentile(samples, q))
                 : TailPercentile(samples, q);
    if (!v.has_value()) {
      notes.push_back(StrFormat("%s omitted: %zu samples leave fewer than 10 "
                                "beyond it",
                                name.c_str(), samples.size()));
      return;
    }
    Add(std::move(name), *v * scale, std::move(unit));
  }
};

obs::JsonValue ToJson(const Report& r, const Options& opt) {
  obs::JsonValue host = obs::JsonValue::Object();
  host.Set("nproc", obs::JsonValue::Number(Nproc()));
  host.Set("cpu_model", obs::JsonValue::String(CpuModel()));
  host.Set("build_type", obs::JsonValue::String(E2E_BUILD_TYPE));
  obs::JsonValue metrics = obs::JsonValue::Object();
  for (const Metric& m : r.metrics) {
    obs::JsonValue v = obs::JsonValue::Object();
    v.Set("value", obs::JsonValue::Number(m.value));
    v.Set("unit", obs::JsonValue::String(m.unit));
    if (m.spread.has_value()) {
      v.Set("spread", obs::JsonValue::Number(*m.spread));
    }
    metrics.Set(m.name, std::move(v));
  }
  obs::JsonValue notes = obs::JsonValue::Array();
  for (const std::string& n : r.notes) notes.Append(obs::JsonValue::String(n));
  obs::JsonValue run = obs::JsonValue::Object();
  run.Set("workload", obs::JsonValue::String(r.workload));
  run.Set("seed", obs::JsonValue::Number(static_cast<double>(opt.seed)));
  run.Set("traced", obs::JsonValue::Bool(r.traced));
  run.Set("smoke", obs::JsonValue::Bool(opt.smoke));
  run.Set("host", std::move(host));
  run.Set("correct", obs::JsonValue::Bool(r.wrong == 0));
  run.Set("attempted", obs::JsonValue::Number(static_cast<double>(r.attempted)));
  run.Set("failed", obs::JsonValue::Number(static_cast<double>(r.failed)));
  run.Set("metrics", std::move(metrics));
  run.Set("notes", std::move(notes));
  return run;
}

void Print(const Report& r) {
  std::printf("# workload %s (%s)\n", r.workload.c_str(),
              r.traced ? "traced" : "timed");
  for (const Metric& m : r.metrics) {
    std::printf("%-36s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------- the run

/// One query or job as the client saw it.
struct QueryRun {
  int q = 0;
  double plan_s = 0;     ///< PlanSql (closed loop only)
  double wall_s = 0;     ///< start of planning -> result
  double latency_s = 0;  ///< due -> result
  bool ok = false;
  JobId job = 0;
  int graphlets = 0;
};

/// Serde and codec throughput replayed on the workload's own tables.
struct Rates {
  double encode_mb_s = 0, decode_mb_s = 0;
  double compress_mb_s = 0, decompress_mb_s = 0;
};

class Bench {
 public:
  Bench(const Options& opt, const Workload& w, std::vector<Query> queries,
        std::map<int, Golden> golden)
      : opt_(opt),
        w_(w),
        sf_(opt.smoke ? kSmokeSf : kScaleFactor),
        queries_(std::move(queries)),
        golden_(std::move(golden)),
        scratch_(std::filesystem::path(opt.scratch) / w.name) {
    report_.workload = w.name;
    report_.traced = opt.traced;
  }

  Result<Report> Run() {
    std::filesystem::create_directories(scratch_);
    Status st = opt_.traced ? RunTraced() : RunTimed();
    std::error_code ec;
    std::filesystem::remove_all(scratch_, ec);
    SWIFT_RETURN_NOT_OK(st);
    return report_;
  }

 private:
  // ------------------------------------------------------ construction

  LocalRuntimeConfig RuntimeConfig(int threads) {
    LocalRuntimeConfig cfg;
    cfg.worker_threads = threads;
    cfg.cache_memory_per_worker = w_.cache_bytes;
    if (w_.force_remote) cfg.force_shuffle_kind = ShuffleKind::kRemote;
    if (w_.spill) cfg.spill_root = NewDir("spill");
    return cfg;
  }

  std::string NewDir(const char* what) {
    return (scratch_ / StrFormat("%s-%d", what, next_dir_++)).string();
  }

  static std::unique_ptr<LocalRuntime> NewRuntime(const LocalRuntimeConfig& cfg,
                                                  const Catalog& tables) {
    auto rt = std::make_unique<LocalRuntime>(cfg);
    ShareTables(tables, rt->catalog());
    return rt;
  }

  JobServiceConfig ServiceConfig() {
    JobServiceConfig cfg;
    cfg.runtime = RuntimeConfig(Nproc());
    cfg.max_concurrent_jobs = Nproc();
    cfg.admission_queue_capacity = 64;
    return cfg;
  }

  // ---------------------------------------------------------- answers

  void Check(int q, const Batch& result) {
    auto it = golden_.find(q);
    if (it != golden_.end() && it->second.rows == result.num_rows() &&
        it->second.digest == AnswerDigest(result)) {
      return;
    }
    report_.wrong += 1;
    std::fprintf(stderr, "%s: wrong answer for Q%d (%zu rows)\n", w_.name, q,
                 result.num_rows());
  }

  /// The suite in the seeded order of `pass`. A chaos pass runs Q9 first,
  /// where ApplyChaos places its machine loss.
  std::vector<Query> Order(int pass) {
    std::vector<Query> order = queries_;
    Rng rng(Mix64(opt_.seed ^ (static_cast<uint64_t>(pass) << 32)));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    if (w_.kind == Kind::kChaos) {
      std::stable_partition(order.begin(), order.end(),
                            [](const Query& q) { return q.q == 9; });
    }
    return order;
  }

  // ------------------------------------------------------ closed loop

  /// One serial pass over the suite in the seeded order of `pass`.
  /// `run(query, &plan_s)` runs one query and returns its report, setting
  /// plan_s when it plans the query itself.
  template <typename RunFn>
  std::vector<QueryRun> RunPass(int pass, RunFn&& run) {
    std::vector<QueryRun> runs;
    for (const Query& query : Order(pass)) {
      QueryRun r;
      r.q = query.q;
      report_.attempted += 1;
      const auto t0 = SteadyClock::now();
      Result<JobRunReport> out = run(query, &r.plan_s);
      r.wall_s = r.latency_s = Since(t0);
      if (!out.ok()) {
        report_.failed += 1;
        std::fprintf(stderr, "%s: Q%d failed: %s\n", w_.name, query.q,
                     out.status().ToString().c_str());
      } else {
        r.ok = true;
        r.job = out->stats.job_id;
        r.graphlets = out->stats.graphlets;
        Check(query.q, out->result);
      }
      runs.push_back(r);
    }
    return runs;
  }

  std::vector<QueryRun> Pass(LocalRuntime* rt, int pass) {
    return RunPass(pass, [rt](const Query& query, double* plan_s) {
      const auto t0 = SteadyClock::now();
      Result<DistributedPlan> plan = PlanSql(query.sql, *rt->catalog());
      *plan_s = Since(t0);
      return plan.ok() ? rt->RunPlan(*plan) : Result<JobRunReport>(plan.status());
    });
  }

  /// The service plans each job in its own threads.
  std::vector<QueryRun> Pass(JobService* svc, int pass) {
    return RunPass(pass, [svc](const Query& query, double*) -> Result<JobRunReport> {
      JobRequest req;
      req.sql = query.sql;
      SWIFT_ASSIGN_OR_RETURN(JobOutcome out, svc->RunSync(std::move(req)));
      SWIFT_RETURN_NOT_OK(out.status);
      return std::move(out.report);
    });
  }

  /// A chaos pass gets a fresh cluster with its own fault schedule.
  std::vector<QueryRun> ChaosPass(const Catalog& tables, int pass,
                                  ShuffleTally* shuffle,
                                  obs::MetricsRegistry* reg = nullptr,
                                  obs::TraceRecorder* tracer = nullptr) {
    LocalRuntimeConfig cfg = RuntimeConfig(Nproc());
    ApplyChaos(Mix64(opt_.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(pass)),
               pass, &cfg);
    cfg.metrics = reg;
    cfg.tracer = tracer;
    auto rt = NewRuntime(cfg, tables);
    std::vector<QueryRun> runs = Pass(rt.get(), pass);
    *shuffle += Tally(rt->shuffle_service()->stats());
    return runs;
  }

  static double PassSeconds(const std::vector<QueryRun>& runs) {
    double s = 0;
    for (const QueryRun& r : runs) s += r.wall_s;
    return s;
  }

  /// Completed queries in `runs`, at least 1 so that it can divide.
  static double Completed(const std::vector<QueryRun>& runs) {
    const auto ok = std::count_if(runs.begin(), runs.end(),
                                  [](const QueryRun& r) { return r.ok; });
    return std::max<double>(1.0, static_cast<double>(ok));
  }

  // ----------------------------------------------------------- set-up

  struct Setup {
    Catalog tables;
    std::unique_ptr<LocalRuntime> runtime;  // tpch-local / tpch-remote-spill
    std::unique_ptr<JobService> service;    // service-trace
  };

  /// Cluster or service construction, TPC-H generation, and an untimed
  /// warm-up (one pass, or kWarmupJobs jobs).
  Result<std::unique_ptr<Setup>> SetUp() {
    auto s = std::make_unique<Setup>();
    SWIFT_ASSIGN_OR_RETURN(s->tables, GenerateTables(sf_));
    switch (w_.kind) {
      case Kind::kTpch:
        s->runtime = NewRuntime(RuntimeConfig(Nproc()), s->tables);
        Pass(s->runtime.get(), -1);
        break;
      case Kind::kChaos: {
        ShuffleTally ignored;
        ChaosPass(s->tables, -1, &ignored);
        break;
      }
      case Kind::kService: {
        s->service = std::make_unique<JobService>(ServiceConfig());
        ShareTables(s->tables, s->service->catalog());
        for (int i = 0; i < kWarmupJobs; ++i) {
          JobRequest req;
          req.sql = queries_[static_cast<std::size_t>(i) % queries_.size()].sql;
          report_.attempted += 1;
          Result<JobOutcome> out = s->service->RunSync(std::move(req));
          if (!out.ok() || !out->status.ok()) report_.failed += 1;
        }
        break;
      }
    }
    return s;
  }

  // -------------------------------------------------------- open loop

  struct OpenLoop {
    std::vector<QueryRun> runs;
    std::vector<double> lag_ms;  ///< how late the generator submitted
    int64_t offered = 0, slo_met = 0, backlog_end = 0;
    ShuffleTally shuffle;
    std::vector<double> ref_s;  ///< reference-kernel timings
    double ref_cpu_s = 0;       ///< CPU the load thread spent on them
  };

  /// `jobs` Fig. 8 Poisson arrivals at kServiceRate, submitted open-loop
  /// from this thread. The query mix cycles through the suite in seeded
  /// rounds, so every seed offers the same work in a different order.
  /// With `time_reference`, a gap of at least kReferenceSlack before an
  /// arrival times the reference kernel, at most once per kReferencePeriod.
  OpenLoop RunOpenLoop(JobService* svc, int jobs, bool time_reference = false) {
    TraceConfig tc;
    tc.num_jobs = jobs;
    tc.seed = opt_.seed;
    tc.mean_interarrival = 1.0 / kServiceRate;
    std::vector<SimJobSpec> trace = GenerateProductionTrace(tc);
    std::sort(trace.begin(), trace.end(),
              [](const SimJobSpec& a, const SimJobSpec& b) {
                return a.submit_time < b.submit_time;
              });
    Rng rng(Mix64(opt_.seed + 0x5eed));
    std::vector<Query> mix;
    for (int round = 0; static_cast<int>(mix.size()) < jobs; ++round) {
      for (const Query& q : Order(1000 + round)) mix.push_back(q);
    }

    struct Submitted {
      int q;
      double due_s, submit_s;
      std::shared_ptr<JobTicket> ticket;
    };
    std::vector<Submitted> submitted;
    OpenLoop out;
    const ShuffleTally before = Tally(svc->runtime()->shuffle_service()->stats());
    const auto t0 = SteadyClock::now();
    auto next_reference = t0;
    for (int i = 0; i < jobs; ++i) {
      const double due_s = trace[static_cast<std::size_t>(i)].submit_time -
                           trace.front().submit_time;
      const auto due = t0 + std::chrono::duration_cast<SteadyClock::duration>(
                                std::chrono::duration<double>(due_s));
      const auto now = SteadyClock::now();
      if (time_reference && now >= next_reference && now + kReferenceSlack < due) {
        const double cpu0 = ThreadCpuSeconds();
        out.ref_s.push_back(ReferenceCpuSeconds());
        out.ref_cpu_s += ThreadCpuSeconds() - cpu0;
        next_reference = now + kReferencePeriod;
      }
      std::this_thread::sleep_until(due);
      JobRequest req;
      req.sql = mix[static_cast<std::size_t>(i)].sql;
      req.tenant = StrFormat("tenant%d", static_cast<int>(rng.UniformInt(0, kTenants - 1)));
      req.priority = static_cast<int>(rng.UniformInt(0, kPriorityClasses - 1));
      const double submit_s = Since(t0);
      out.lag_ms.push_back((submit_s - due_s) * 1e3);
      out.offered += 1;
      report_.attempted += 1;
      Result<std::shared_ptr<JobTicket>> ticket = svc->Submit(std::move(req));
      if (!ticket.ok()) {
        report_.failed += 1;
        continue;
      }
      submitted.push_back({mix[static_cast<std::size_t>(i)].q, due_s, submit_s,
                        std::move(*ticket)});
    }
    const JobService::Stats at_last_due = svc->stats();
    out.backlog_end = at_last_due.queue_depth + at_last_due.running;
    for (const Submitted& i : submitted) {
      const JobOutcome& o = i.ticket->Wait();
      QueryRun r;
      r.q = i.q;
      r.latency_s = (i.submit_s - i.due_s) + o.latency_s;
      r.wall_s = o.latency_s - o.queue_wait_s;
      if (!o.status.ok()) {
        report_.failed += 1;
        continue;
      }
      r.ok = true;
      r.job = o.report.stats.job_id;
      r.graphlets = o.report.stats.graphlets;
      Check(i.q, o.report.result);
      if (r.latency_s <= kSloSeconds) out.slo_met += 1;
      out.runs.push_back(r);
    }
    out.shuffle = Tally(svc->runtime()->shuffle_service()->stats()) - before;
    return out;
  }

  /// Saturation probe: kProbeJobs offered at t=0; a full admission queue
  /// is waited out on the oldest job. Returns completed jobs per second.
  double CapacityProbe(JobService* svc, int jobs) {
    std::deque<std::pair<int, std::shared_ptr<JobTicket>>> inflight;
    int completed = 0;
    auto finish_oldest = [&] {
      const JobOutcome& o = inflight.front().second->Wait();
      if (o.status.ok()) {
        completed += 1;
        Check(inflight.front().first, o.report.result);
      } else {
        report_.failed += 1;
      }
      inflight.pop_front();
    };
    const auto t0 = SteadyClock::now();
    for (int i = 0; i < jobs; ++i) {
      const Query& query = queries_[static_cast<std::size_t>(i) % queries_.size()];
      report_.attempted += 1;
      for (;;) {
        JobRequest req;
        req.sql = query.sql;
        req.tenant = StrFormat("tenant%d", i % kTenants);
        Result<std::shared_ptr<JobTicket>> ticket = svc->Submit(std::move(req));
        if (ticket.ok()) {
          inflight.emplace_back(query.q, std::move(*ticket));
          break;
        }
        finish_oldest();
      }
    }
    while (!inflight.empty()) finish_oldest();
    return completed / Since(t0);
  }

  // ------------------------------------------------------- timed run

  Status RunTimed() {
    // The reference kernel is timed after each set-up and each pass, or in
    // the open loop's gaps between arrivals, so that its timings span the
    // same stretch of time as the work they scale. Single timings of the
    // kernel and of the work do not move together; their medians do.
    std::vector<double> setup_user_s, setup_wall_s, ref_s;
    std::unique_ptr<Setup> setup;
    for (int i = 0; i < (opt_.smoke ? 1 : kSetupRepeats); ++i) {
      setup.reset();
      const CpuTime cpu0 = ProcessCpu();
      const auto t0 = SteadyClock::now();
      SWIFT_ASSIGN_OR_RETURN(setup, SetUp());
      setup_wall_s.push_back(Since(t0));
      setup_user_s.push_back((ProcessCpu() - cpu0).user);
      ref_s.push_back(ReferenceCpuSeconds());
    }

    // CPU seconds per completed query: one sample per pass in the closed
    // loops, one for the whole open loop.
    std::vector<double> user_s, sys_s;
    auto add_cpu = [&](const CpuTime& used, double queries) {
      user_s.push_back(used.user / queries);
      sys_s.push_back(used.sys / queries);
    };
    // Shuffle traffic is summed over the phase: on tpch-chaos only the
    // passes whose faults force re-runs send extra bytes, so a median over
    // passes would jump between the clean and the faulty ones.
    ShuffleTally shuffle;
    std::vector<QueryRun> runs;
    std::vector<double> suite_s;
    int64_t offered = 0, slo_met = 0;
    if (w_.kind == Kind::kService) {
      const CpuTime cpu0 = ProcessCpu();
      OpenLoop loop = RunOpenLoop(setup->service.get(),
                                  opt_.smoke ? kSmokeJobs : kTimedJobs,
                                  /*time_reference=*/true);
      setup->service->Drain();
      CpuTime used = ProcessCpu() - cpu0;
      used.user -= loop.ref_cpu_s;
      add_cpu(used, Completed(loop.runs));
      ref_s.insert(ref_s.end(), loop.ref_s.begin(), loop.ref_s.end());
      shuffle = loop.shuffle;
      runs = loop.runs;
      offered = loop.offered;
      slo_met = loop.slo_met;
    } else {
      for (int pass = 0; pass < (opt_.smoke ? kSmokePasses : kTimedPasses); ++pass) {
        const CpuTime cpu0 = ProcessCpu();
        std::vector<QueryRun> pr;
        if (w_.kind == Kind::kChaos) {
          pr = ChaosPass(setup->tables, pass, &shuffle);
        } else {
          const ShuffleTally before = Tally(setup->runtime->shuffle_service()->stats());
          pr = Pass(setup->runtime.get(), pass);
          shuffle += Tally(setup->runtime->shuffle_service()->stats()) - before;
        }
        add_cpu(ProcessCpu() - cpu0, Completed(pr));
        ref_s.push_back(ReferenceCpuSeconds());
        suite_s.push_back(PassSeconds(pr));
        runs.insert(runs.end(), pr.begin(), pr.end());
      }
      offered = static_cast<int64_t>(runs.size());
      for (const QueryRun& r : runs) {
        if (r.ok && r.latency_s <= kSloSeconds) slo_met += 1;
      }
    }

    std::vector<double> query_s, latency_s;
    for (const QueryRun& r : runs) {
      if (!r.ok) continue;
      query_s.push_back(r.wall_s);
      latency_s.push_back(r.latency_s);
    }
    const double ref = Median(ref_s);
    Report& rep = report_;
    rep.Add("setup_s", Median(setup_user_s) / ref * kNominalReferenceSeconds, "s",
            Spread(setup_user_s));
    rep.Add("cpu_ref_per_query", Median(user_s) / ref, "ref", Spread(user_s));
    rep.Add("shuffle_mb_per_query",
            static_cast<double>(shuffle.framed_bytes) / kMB / Completed(runs), "MB");
    rep.Add("peak_rss_mb", PeakRssMb(), "MB");
    rep.Add("user_s_per_query", Median(user_s), "s", Spread(user_s));
    rep.Add("sys_s_per_query", Median(sys_s), "s", Spread(sys_s));
    rep.Add("setup_wall_s", Median(setup_wall_s), "s", Spread(setup_wall_s));
    if (!suite_s.empty()) rep.Add("suite_s", Median(suite_s), "s", Spread(suite_s));
    rep.AddPercentile("query_s.p50", query_s, 0.50, 1.0, "s");
    rep.AddPercentile("query_s.p95", query_s, 0.95, 1.0, "s");
    rep.AddPercentile("job_latency_s.p50", latency_s, 0.50, 1.0, "s");
    rep.AddPercentile("job_latency_s.p95", latency_s, 0.95, 1.0, "s");
    rep.Add("slo_attainment",
            offered > 0 ? static_cast<double>(slo_met) / static_cast<double>(offered) : 0.0,
            "fraction");
    rep.Add("failed_frac",
            rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 0.0,
            "fraction");
    rep.Add("wrong_answers", static_cast<double>(rep.wrong), "count");
    rep.notes.push_back(StrFormat("%zu latency samples, %zu CPU samples, %zu reference "
                                  "samples",
                                  query_s.size(), user_s.size(), ref_s.size()));
    return Status::OK();
  }

  // ------------------------------------------------------ traced run

  Status RunTraced();
  Rates ReplayRates(const Catalog& tables);
  std::vector<double> ReplayShuffle(const Catalog& tables, const ShuffleTally& seen,
                                    int64_t queries, ShuffleKind kind,
                                    std::vector<double>* get_us);

  const Options& opt_;
  const Workload& w_;
  const double sf_;
  const std::vector<Query> queries_;
  const std::map<int, Golden> golden_;
  const std::filesystem::path scratch_;
  int next_dir_ = 0;
  Report report_;
};

// ---------------------------------------------------------- traced run

template <typename Fn>
double MedianSeconds(Fn&& fn) {
  std::vector<double> s;
  for (int t = 0; t < kReplayTrials; ++t) {
    const auto t0 = SteadyClock::now();
    fn();
    s.push_back(Since(t0));
  }
  return Median(s);
}

std::string TableWire(const Catalog& tables, const std::string& name) {
  std::shared_ptr<Table> t = tables.Lookup(name).ValueOrDie();
  Batch b;
  b.schema = t->schema;
  b.rows = t->rows;
  return SerializeBatch(b);
}

Rates Bench::ReplayRates(const Catalog& tables) {
  Rates r;
  double bytes = 0, enc = 0, dec = 0, comp = 0, decomp = 0, framed = 0;
  for (const char* name : {"tpch_lineitem", "tpch_orders"}) {
    const std::string wire = TableWire(tables, name);
    ColumnBatch batch = DeserializeColumnBatch(wire).ValueOrDie();
    bytes += static_cast<double>(wire.size());
    enc += MedianSeconds([&] { (void)SerializeColumnBatch(batch); });
    dec += MedianSeconds([&] { (void)DeserializeColumnBatch(wire); });
    std::string frame;
    comp += MedianSeconds([&] { frame = CompressFrame(wire); });
    decomp += MedianSeconds([&] { (void)DecompressFrame(frame); });
    framed += static_cast<double>(frame.size());
  }
  r.encode_mb_s = bytes / kMB / enc;
  r.decode_mb_s = bytes / kMB / dec;
  r.compress_mb_s = bytes / kMB / comp;
  r.decompress_mb_s = bytes / kMB / decomp;
  return r;
}

/// Times single puts (and then gets) on a standalone ShuffleService built
/// with the workload's shuffle config: the observed write count at the
/// observed mean payload, cut from the workload's own lineitem wire bytes
/// and framed when the workload's writes were, through the scheme that
/// carried most of its bytes. Returns put latencies in microseconds; get
/// latencies go to `get_us`.
std::vector<double> Bench::ReplayShuffle(const Catalog& tables,
                                         const ShuffleTally& seen,
                                         int64_t queries, ShuffleKind kind,
                                         std::vector<double>* get_us) {
  std::vector<double> put_us;
  if (seen.writes <= 0 || queries <= 0) return put_us;
  const std::string wire = TableWire(tables, "tpch_lineitem");
  const auto raw_mean = static_cast<std::size_t>(
      std::max<int64_t>(1, seen.raw_bytes() / seen.writes));
  std::string payload = wire.substr(0, std::min(raw_mean, wire.size()));
  if (seen.frames > 0) payload = CompressFrame(payload);
  const ShuffleBuffer buffer(std::move(payload));

  ShuffleService::Config cfg;
  cfg.cache_memory_per_worker = w_.cache_bytes;
  if (w_.spill) cfg.spill_root = NewDir("replay");
  ShuffleService svc(cfg);
  const int64_t per_job = std::max<int64_t>(1, seen.writes / queries);
  for (int64_t done = 0, job = 1; done < seen.writes; ++job) {
    const int64_t n = std::min(per_job, seen.writes - done);
    for (int64_t i = 0; i < n; ++i) {
      const ShuffleSlotKey key{job, 0, static_cast<int>(i), 1, 0};
      const auto t0 = SteadyClock::now();
      Status st = svc.WritePartition(kind, key, buffer, static_cast<int>(i % 4),
                                     /*pipelined=*/false);
      put_us.push_back(Since(t0) * 1e6);
      if (!st.ok()) report_.failed += 1;
    }
    for (int64_t i = 0; i < n; ++i) {
      const ShuffleSlotKey key{job, 0, static_cast<int>(i), 1, 0};
      const auto t0 = SteadyClock::now();
      Result<ShuffleBuffer> got = svc.ReadPartition(
          kind, key, static_cast<int>((i + 1) % 4), static_cast<int>(i % 4));
      get_us->push_back(Since(t0) * 1e6);
      if (!got.ok()) report_.failed += 1;
    }
    svc.RemoveJob(job);
    done += n;
  }
  return put_us;
}

/// What the spans of the traced queries add up to.
struct SpanTotals {
  double gang = 0, wave = 0, busy = 0, rerun_busy = 0, straggler = 0;
  std::vector<double> queue_wait_ms;  ///< task start - its wave's start
  int64_t tasks = 0;                  ///< distinct (job, stage, task)
};

/// Adds the spans of the completed `runs` to `t`. Job ids are unique
/// only within one runtime, so spans are summed once per runtime.
void SumSpans(const std::vector<obs::Span>& spans,
              const std::vector<QueryRun>& runs, SpanTotals* t) {
  std::set<int64_t> jobs;
  for (const QueryRun& r : runs) {
    if (r.ok) jobs.insert(r.job);
  }
  struct Wave {
    int64_t start, end;
    std::vector<double> task_s;
  };
  std::map<std::pair<int64_t, int>, std::vector<Wave>> waves;
  for (const obs::Span& s : spans) {
    if (jobs.count(s.job) == 0) continue;
    if (s.category == "gang") t->gang += s.dur_us * 1e-6;
    if (s.category == "wave") {
      t->wave += s.dur_us * 1e-6;
      waves[{s.job, s.stage}].push_back({s.start_us, s.start_us + s.dur_us, {}});
    }
  }
  std::set<std::tuple<int64_t, int, int>> distinct;
  for (const obs::Span& s : spans) {
    if (s.category != "task" || jobs.count(s.job) == 0) continue;
    t->busy += s.dur_us * 1e-6;
    if (s.attempt >= 1) t->rerun_busy += s.dur_us * 1e-6;
    distinct.insert({s.job, s.stage, s.task});
    for (Wave& w : waves[{s.job, s.stage}]) {
      if (s.start_us >= w.start && s.start_us <= w.end) {
        t->queue_wait_ms.push_back((s.start_us - w.start) * 1e-3);
        w.task_s.push_back(s.dur_us * 1e-6);
        break;
      }
    }
  }
  // A wave waits for its slowest task: the straggler cost is how far
  // the longest task ran past the wave's median task.
  for (const auto& [key, list] : waves) {
    for (const Wave& w : list) {
      if (w.task_s.empty()) continue;
      t->straggler += *std::max_element(w.task_s.begin(), w.task_s.end()) -
                      Median(w.task_s);
    }
  }
  t->tasks += static_cast<int64_t>(distinct.size());
}

Status Bench::RunTraced() {
  SWIFT_ASSIGN_OR_RETURN(std::unique_ptr<Setup> setup, SetUp());
  const int passes = opt_.smoke ? 1 : kTracedPasses;
  const int overhead_passes = opt_.smoke ? 1 : kOverheadPasses;

  // Untraced baseline of the trace-overhead ratio, on the same work.
  std::vector<double> untraced_s, traced_s;
  for (int p = 0; p < overhead_passes; ++p) {
    ShuffleTally ignored;
    switch (w_.kind) {
      case Kind::kTpch:
        untraced_s.push_back(PassSeconds(Pass(setup->runtime.get(), p)));
        break;
      case Kind::kChaos:
        untraced_s.push_back(PassSeconds(ChaosPass(setup->tables, p, &ignored)));
        break;
      case Kind::kService:
        untraced_s.push_back(PassSeconds(Pass(setup->service.get(), p)));
        break;
    }
  }

  SystemClock wall;
  obs::TraceRecorder tracer(&wall);
  obs::MetricsRegistry reg;
  std::vector<QueryRun> runs;
  std::vector<double> plan_s;
  ShuffleTally shuffle;
  SpanTotals t;
  obs::MetricsRegistry::Snapshot before;
  std::optional<OpenLoop> loop;
  if (w_.kind == Kind::kService) {
    JobServiceConfig cfg = ServiceConfig();
    cfg.runtime.metrics = &reg;
    cfg.runtime.tracer = &tracer;
    JobService svc(cfg);
    ShareTables(setup->tables, svc.catalog());
    for (int p = 0; p < overhead_passes; ++p) {
      traced_s.push_back(PassSeconds(Pass(&svc, p)));
    }
    tracer.Clear();
    before = reg.TakeSnapshot();
    loop = RunOpenLoop(&svc, opt_.smoke ? kSmokeJobs : kTimedJobs);
    svc.Drain();
    runs = loop->runs;
    shuffle = loop->shuffle;
    SumSpans(tracer.Spans(), runs, &t);
    // The service plans inside its own threads; time the same plans here.
    for (int p = 0; p < passes; ++p) {
      for (const Query& q : queries_) {
        const auto t0 = SteadyClock::now();
        (void)PlanSql(q.sql, *svc.catalog());
        plan_s.push_back(Since(t0));
      }
    }
  } else if (w_.kind == Kind::kChaos) {
    for (int p = 0; p < passes; ++p) {
      std::vector<QueryRun> pr = ChaosPass(setup->tables, p, &shuffle, &reg, &tracer);
      traced_s.push_back(PassSeconds(pr));
      SumSpans(tracer.Spans(), pr, &t);
      tracer.Clear();
      runs.insert(runs.end(), pr.begin(), pr.end());
    }
  } else {
    LocalRuntimeConfig cfg = RuntimeConfig(Nproc());
    cfg.metrics = &reg;
    cfg.tracer = &tracer;
    auto rt = NewRuntime(cfg, setup->tables);
    for (int p = 0; p < passes; ++p) {
      std::vector<QueryRun> pr = Pass(rt.get(), p);
      traced_s.push_back(PassSeconds(pr));
      runs.insert(runs.end(), pr.begin(), pr.end());
    }
    shuffle = Tally(rt->shuffle_service()->stats());
    SumSpans(tracer.Spans(), runs, &t);
  }
  const obs::MetricsRegistry::Snapshot d = RegistryDelta(before, reg.TakeSnapshot());

  std::vector<double> wall_s;
  double graphlets = 0;
  for (const QueryRun& r : runs) {
    if (!r.ok) continue;
    wall_s.push_back(r.wall_s);
    if (w_.kind != Kind::kService) plan_s.push_back(r.plan_s);
    graphlets += r.graphlets;
  }
  const double nq = std::max<double>(1.0, static_cast<double>(wall_s.size()));

  // Single-threaded baseline: one clean pass on a 1-thread cluster.
  double one_thread_s = 0;
  {
    LocalRuntimeConfig cfg = RuntimeConfig(1);
    auto rt = NewRuntime(cfg, setup->tables);
    one_thread_s = PassSeconds(Pass(rt.get(), 0));
  }
  double capacity = 0;
  if (w_.kind == Kind::kService) {
    setup->service->Drain();
    capacity = CapacityProbe(setup->service.get(), opt_.smoke ? kSmokeJobs : kProbeJobs);
  }
  auto counter = [&](const std::string& name) {
    auto it = d.counters.find(name);
    return it == d.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto mode_mb = [&](ShuffleKind k) {
    return counter("shuffle." + std::string(ShuffleKindToString(k)) + ".bytes_written") /
           kMB;
  };
  ShuffleKind busiest = ShuffleKind::kDirect;
  for (ShuffleKind k : {ShuffleKind::kLocal, ShuffleKind::kRemote}) {
    if (mode_mb(k) > mode_mb(busiest)) busiest = k;
  }
  const Rates rates = ReplayRates(setup->tables);
  std::vector<double> get_us;
  const std::vector<double> put_us = ReplayShuffle(
      setup->tables, shuffle, static_cast<int64_t>(wall_s.size()), busiest, &get_us);

  auto series = [&](const std::string& name) {
    auto it = d.series.find(name);
    return it == d.series.end() ? std::vector<double>{} : it->second;
  };
  auto per_query = [&](double v) { return v / nq; };
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };

  // Layer estimates (seconds per query) from the replayed rates.
  const double raw_mb = static_cast<double>(shuffle.raw_bytes()) / kMB;
  const double serde_s =
      per_query(raw_mb / rates.encode_mb_s + raw_mb / rates.decode_mb_s);
  const double compress_s =
      per_query(static_cast<double>(shuffle.frame_raw_bytes) / kMB / rates.compress_mb_s);
  const double decompress_s =
      per_query(counter("shuffle.decompress.bytes") / kMB / rates.decompress_mb_s);
  const double put_s = per_query(static_cast<double>(shuffle.writes) * mean(put_us) * 1e-6);
  const double get_s = per_query(static_cast<double>(shuffle.reads) * mean(get_us) * 1e-6);

  TimeLedger ledger;
  ledger.wall = mean(wall_s);
  ledger.plan = mean(plan_s);
  ledger.gang = per_query(t.gang);
  ledger.wave = per_query(t.wave);
  ledger.busy = per_query(t.busy);
  ledger.serde = serde_s;
  ledger.codec = compress_s + decompress_s;
  ledger.shuffle = put_s + get_s;
  ledger = CloseLedger(ledger);

  const double suite_untraced = Median(untraced_s);
  Report& rep = report_;
  rep.AddPercentile("sql.plan_ms.p50", plan_s, 0.50, 1e3, "ms");
  rep.Add("sql.graphlets_per_query", graphlets / nq, "count");
  rep.Add("sql.tasks_per_query", per_query(static_cast<double>(t.tasks)), "count");
  rep.Add("runtime.task_busy_s", ledger.busy, "s");
  rep.Add("runtime.wave_s", ledger.wave, "s");
  rep.Add("runtime.overhead_s", ledger.overhead, "s");
  rep.Add("runtime.concurrency", t.wave > 0 ? t.busy / t.wave : 0.0, "ratio");
  rep.Add("runtime.straggler_s", per_query(t.straggler), "s");
  rep.Add("runtime.speedup_1_to_nproc",
          suite_untraced > 0 ? one_thread_s / suite_untraced : 0.0, "ratio");
  rep.Add("exec.morsels", per_query(counter("exec.morsel.processed")), "count");
  rep.Add("exec.morsel_rows", per_query(counter("exec.morsel.rows")), "count");
  rep.Add("exec.serde_encode_mb_s", rates.encode_mb_s, "MB/s");
  rep.Add("exec.serde_decode_mb_s", rates.decode_mb_s, "MB/s");
  rep.Add("exec.serde_s_est", serde_s, "s");
  rep.Add("exec.operator_s_est", ledger.operators, "s");
  rep.Add("codec.frames", per_query(static_cast<double>(shuffle.frames)), "count");
  rep.Add("codec.skipped", per_query(static_cast<double>(shuffle.skipped)), "count");
  rep.Add("codec.ratio",
          shuffle.frame_bytes > 0 ? static_cast<double>(shuffle.frame_raw_bytes) /
                                        static_cast<double>(shuffle.frame_bytes)
                                  : 0.0,
          "ratio");
  rep.Add("codec.compress_mb_s", rates.compress_mb_s, "MB/s");
  rep.Add("codec.decompress_mb_s", rates.decompress_mb_s, "MB/s");
  rep.Add("codec.compress_s_est", compress_s, "s");
  rep.Add("codec.decompress_s_est", decompress_s, "s");
  for (ShuffleKind k : {ShuffleKind::kDirect, ShuffleKind::kLocal, ShuffleKind::kRemote}) {
    rep.Add("shuffle.mb." + std::string(ShuffleKindToString(k)), per_query(mode_mb(k)),
            "MB");
  }
  rep.Add("shuffle.connections",
          per_query(counter("shuffle.connections.direct") +
                    counter("shuffle.connections.local") +
                    counter("shuffle.connections.remote")),
          "count");
  rep.AddPercentile("shuffle.put_us.p50", put_us, 0.50, 1.0, "us");
  rep.AddPercentile("shuffle.put_us.p99", put_us, 0.99, 1.0, "us");
  rep.AddPercentile("shuffle.get_us.p50", get_us, 0.50, 1.0, "us");
  rep.AddPercentile("shuffle.get_us.p99", get_us, 0.99, 1.0, "us");
  rep.Add("shuffle.put_s_est", put_s, "s");
  rep.Add("shuffle.get_s_est", get_s, "s");
  rep.Add("shuffle.backpressure_waits", per_query(counter("shuffle.backpressure.waits")),
          "count");
  rep.Add("shuffle.backpressure_rejections",
          per_query(counter("shuffle.backpressure.rejections")), "count");
  rep.Add("shuffle.forced_admits",
          per_query(counter("shuffle.backpressure.forced_admits")), "count");
  rep.Add("cache.spill_mb", per_query(counter("cache.spill.bytes") / kMB), "MB");
  rep.Add("cache.spill_stored_mb", per_query(counter("cache.spill.stored_bytes") / kMB),
          "MB");
  rep.Add("cache.reloads", per_query(counter("cache.reloads")), "count");
  rep.Add("scheduler.gang_wait_s", ledger.gang, "s");
  rep.AddPercentile("scheduler.pool_queue_wait_ms.p50", t.queue_wait_ms, 0.50, 1.0,
                    "ms");
  rep.AddPercentile("scheduler.pool_queue_wait_ms.p99", t.queue_wait_ms, 0.99, 1.0,
                    "ms");
  rep.Add("scheduler.executor_idle_ratio.mean",
          mean(series("scheduler.graphlet_idle_ratio")), "ratio");
  {
    auto it = d.histograms.find("threadpool.worker_idle_ratio");
    rep.Add("threadpool.worker_idle_ratio",
            it != d.histograms.end() && it->second.count > 0
                ? it->second.sum / static_cast<double>(it->second.count)
                : 0.0,
            "ratio");
  }
  const std::vector<double> lag_ms = loop ? loop->lag_ms : std::vector<double>{};
  rep.AddPercentile("service.queue_wait_s.p50", series("service.queue.wait_s"), 0.50,
                    1.0, "s");
  rep.AddPercentile("service.queue_wait_s.p95", series("service.queue.wait_s"), 0.95,
                    1.0, "s");
  rep.AddPercentile("service.gang_wait_s.p95", series("service.gang.wait_s"), 0.95, 1.0,
                    "s");
  rep.Add("service.preemptions", per_query(counter("service.preemptions")), "count");
  rep.Add("service.gang_yields", per_query(counter("scheduler.gang_yields")), "count");
  rep.Add("service.backlog_end", loop ? static_cast<double>(loop->backlog_end) : 0.0,
          "count");
  rep.Add("service.capacity_jobs_s", capacity, "1/s");
  rep.AddPercentile("bench.gen_lag_ms.p95", lag_ms, 0.95, 1.0, "ms");
  rep.Add("bench.gen_lag_ms.max",
          lag_ms.empty() ? 0.0 : *std::max_element(lag_ms.begin(), lag_ms.end()), "ms");
  rep.Add("fault.tasks_rerun", per_query(counter("runtime.tasks.rerun")), "count");
  rep.Add("fault.recoveries", per_query(counter("runtime.recoveries")), "count");
  rep.Add("fault.restart_equiv_tasks",
          per_query(counter("runtime.restart_equivalent_tasks")), "count");
  rep.Add("fault.rerun_busy_s", per_query(t.rerun_busy), "s");
  rep.Add("fault.read_retries", per_query(counter("shuffle.read_retries")), "count");
  rep.Add("fault.corrupt_rereads", per_query(counter("runtime.corrupt_read_retries")),
          "count");
  rep.Add("fault.machine_failures", per_query(counter("runtime.machine_failures")),
          "count");
  {
    auto it = d.histograms.find("fault.detection_delay_s");
    rep.Add("fault.detection_delay_s.p50",
            it == d.histograms.end() ? 0.0 : HistogramMedian(it->second), "s");
  }
  rep.Add("obs.trace_overhead",
          suite_untraced > 0 ? Median(traced_s) / suite_untraced - 1.0 : 0.0, "ratio");
  rep.Add("failed_frac",
          rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted)
                            : 0.0,
          "fraction");
  rep.Add("wrong_answers", static_cast<double>(rep.wrong), "count");

  rep.notes.push_back(StrFormat(
      "ledger per query: wall %.6f s = plan %.6f + gang %.6f + waves %.6f + "
      "runtime overhead %.6f",
      ledger.wall, ledger.plan, ledger.gang, ledger.wave, ledger.overhead));
  rep.notes.push_back(StrFormat(
      "ledger per query: task busy %.6f s = serde %.6f + codec %.6f + shuffle "
      "%.6f + operators %.6f (residual)",
      ledger.busy, ledger.serde, ledger.codec, ledger.shuffle, ledger.operators));
  if (ledger.residual_negative()) {
    rep.notes.push_back("LEDGER FLAG: operator residual below 0; the layer "
                        "estimates overshoot measured task time");
  }
  rep.notes.push_back(StrFormat("%zu traced queries", wall_s.size()));
  return Status::OK();
}

// ----------------------------------------------------- golden answers

/// Runs the suite at `sf` on an adaptive, a forced-Remote, a
/// remote-spill and a chaos cluster; prints the golden file when all four
/// agree on every answer.
int PrintGolden(double sf, const std::string& scratch) {
  Result<std::vector<Query>> queries = SuiteQueries();
  Result<Catalog> tables = GenerateTables(sf);
  if (!queries.ok() || !tables.ok()) {
    std::fprintf(stderr, "cannot set up TPC-H at sf %g\n", sf);
    return 2;
  }
  std::vector<LocalRuntimeConfig> configs(4);
  configs[1].force_shuffle_kind = ShuffleKind::kRemote;
  configs[2].force_shuffle_kind = ShuffleKind::kRemote;
  configs[2].cache_memory_per_worker = 256LL << 10;
  configs[2].spill_root = scratch + "/golden-spill";
  ApplyChaos(1, 0, &configs[3]);
  std::map<int, std::set<std::pair<uint32_t, std::size_t>>> seen;
  for (LocalRuntimeConfig& cfg : configs) {
    cfg.worker_threads = Nproc();
    LocalRuntime rt(cfg);
    ShareTables(*tables, rt.catalog());
    for (const Query& q : *queries) {
      Result<Batch> out = rt.ExecuteSql(q.sql);
      if (!out.ok()) {
        std::fprintf(stderr, "Q%d failed: %s\n", q.q, out.status().ToString().c_str());
        return 2;
      }
      seen[q.q].insert({AnswerDigest(*out), out->num_rows()});
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  std::printf("# TPC-H sf %g answers: query, CRC-32C of the serialized answer\n"
              "# without its footer, rows. Identical on adaptive, forced-Remote,\n"
              "# remote-spill and chaos clusters.\n",
              sf);
  int status = 0;
  for (const auto& [q, digests] : seen) {
    if (digests.size() != 1) {
      std::fprintf(stderr, "Q%d: answers differ across configurations\n", q);
      status = 1;
      continue;
    }
    std::printf("%d %08x %zu\n", q, digests.begin()->first, digests.begin()->second);
  }
  return status;
}

// ------------------------------------------------------------ compare

Result<obs::JsonValue> ReadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return obs::ParseJson(text.str());
}

int Compare(const std::string& a_path, const std::string& b_path,
            const std::string& benchmark_path) {
  Result<obs::JsonValue> a = ReadJson(a_path);
  Result<obs::JsonValue> b = ReadJson(b_path);
  Result<obs::JsonValue> bench = ReadJson(benchmark_path);
  for (const Status& st : {a.status(), b.status(), bench.status()}) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
  }
  Result<std::vector<CompareRow>> rows = CompareRuns(*a, *b, *bench);
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 2;
  }
  int failing = 0;
  std::printf("%-20s %-22s %14s %14s %9s  %s\n", "workload", "metric", "a", "b",
              "change", "verdict");
  for (const CompareRow& r : *rows) {
    const double change = r.a != 0 ? (r.b - r.a) / std::fabs(r.a) * 100.0 : 0.0;
    std::printf("%-20s %-22s %14.6g %14.6g %8.2f%%  %s\n", r.workload.c_str(),
                r.metric.c_str(), r.a, r.b, change, VerdictName(r.verdict));
    if (r.verdict == Verdict::kOutside || r.verdict == Verdict::kMissing) ++failing;
  }
  if (rows->empty()) {
    std::fprintf(stderr, "neither file holds a timed run\n");
    return 2;
  }
  return failing > 0 ? 1 : 0;
}

// --------------------------------------------------------------- main

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name|all> --seed <n> [--traced] [--smoke]\n"
               "                 [--json <out>] [--scratch <dir>]\n"
               "       bench_e2e --compare a.json b.json [--benchmark BENCHMARK.json]\n"
               "       bench_e2e --print-golden <scale factor>\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> compare;
  std::string benchmark = "BENCHMARK.json";
  std::optional<double> golden_sf;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = opt.traced = true;
    } else if (arg == "--compare" && i + 2 < argc) {
      compare = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else if (!(v = value()).has_value()) {
      return Usage();
    } else if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (*v == "all" || *v == w.name) opt.workloads.push_back(&w);
      }
      if (opt.workloads.empty()) return Usage();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (arg == "--json") {
      opt.json_path = *v;
    } else if (arg == "--scratch") {
      opt.scratch = *v;
    } else if (arg == "--benchmark") {
      benchmark = *v;
    } else if (arg == "--print-golden") {
      golden_sf = std::atof(v->c_str());
    } else {
      return Usage();
    }
  }
  if (!compare.empty()) return Compare(compare[0], compare[1], benchmark);
  // Chaos recovery logs every fault; keep stderr to real errors.
  Logger::Instance().set_level(LogLevel::kError);
  if (golden_sf.has_value()) return PrintGolden(*golden_sf, opt.scratch);
  if (opt.workloads.empty()) return Usage();

  Result<std::vector<Query>> queries = SuiteQueries();
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 2;
  }
  std::printf("# bench_e2e seed %llu, nproc %d, cpu \"%s\", build %s\n",
              static_cast<unsigned long long>(opt.seed), Nproc(), CpuModel().c_str(),
              E2E_BUILD_TYPE);
  obs::JsonValue runs = obs::JsonValue::Array();
  int status = 0;
  for (const Workload* w : opt.workloads) {
    Result<std::map<int, Golden>> golden =
        LoadGolden(E2E_GOLDEN_DIR, opt.smoke ? kSmokeSf : kScaleFactor);
    if (!golden.ok()) {
      std::fprintf(stderr, "%s\n", golden.status().ToString().c_str());
      return 2;
    }
    Bench bench(opt, *w, *queries, *std::move(golden));
    Result<Report> report = bench.Run();
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", w->name, report.status().ToString().c_str());
      return 2;
    }
    Print(*report);
    runs.Append(ToJson(*report, opt));
    if (report->wrong > 0) status = 1;
  }
  if (!opt.json_path.empty()) {
    obs::JsonValue file = obs::JsonValue::Object();
    file.Set("runs", std::move(runs));
    std::ofstream out(opt.json_path);
    out << obs::WriteJson(file) << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 2;
    }
  }
  return status;
}

}  // namespace
}  // namespace e2e
}  // namespace swift

int main(int argc, char** argv) { return swift::e2e::Main(argc, argv); }
