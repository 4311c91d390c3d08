#include "e2e_stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "service/quantiles.h"

namespace swift {
namespace e2e {

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Spread(std::vector<double> samples) {
  if (samples.size() < 2) return 0.0;
  const double median = Percentile(samples, 0.5);
  if (median == 0.0) return 0.0;
  return (Percentile(samples, 0.75) - Percentile(samples, 0.25)) /
         std::fabs(median);
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)));
  return n - std::min(rank, n);
}

std::optional<double> TailPercentile(std::vector<double> samples, double q) {
  if (SamplesBeyond(samples.size(), q) < 10) return std::nullopt;
  return Percentile(std::move(samples), q);
}

ShuffleTally Tally(const ShuffleServiceStats& s) {
  ShuffleTally t;
  t.writes = s.direct_writes + s.local_writes + s.remote_writes;
  t.reads = s.reads;
  t.framed_bytes = s.bytes_transferred;
  t.frames = s.compressed_writes;
  t.skipped = s.compress_skipped;
  t.frame_raw_bytes = s.compress_bytes_in;
  t.frame_bytes = s.compress_bytes_out;
  return t;
}

ShuffleTally operator-(const ShuffleTally& after, const ShuffleTally& before) {
  ShuffleTally d;
  d.writes = after.writes - before.writes;
  d.reads = after.reads - before.reads;
  d.framed_bytes = after.framed_bytes - before.framed_bytes;
  d.frames = after.frames - before.frames;
  d.skipped = after.skipped - before.skipped;
  d.frame_raw_bytes = after.frame_raw_bytes - before.frame_raw_bytes;
  d.frame_bytes = after.frame_bytes - before.frame_bytes;
  return d;
}

ShuffleTally& operator+=(ShuffleTally& sum, const ShuffleTally& part) {
  sum.writes += part.writes;
  sum.reads += part.reads;
  sum.framed_bytes += part.framed_bytes;
  sum.frames += part.frames;
  sum.skipped += part.skipped;
  sum.frame_raw_bytes += part.frame_raw_bytes;
  sum.frame_bytes += part.frame_bytes;
  return sum;
}

obs::MetricsRegistry::Snapshot RegistryDelta(
    const obs::MetricsRegistry::Snapshot& before,
    const obs::MetricsRegistry::Snapshot& after) {
  obs::MetricsRegistry::Snapshot d;
  for (const auto& [name, v] : after.counters) {
    auto it = before.counters.find(name);
    d.counters[name] = v - (it == before.counters.end() ? 0 : it->second);
  }
  d.gauges = after.gauges;
  for (const auto& [name, samples] : after.series) {
    auto it = before.series.find(name);
    const std::size_t skip =
        it == before.series.end() ? 0 : std::min(it->second.size(), samples.size());
    d.series[name].assign(samples.begin() + static_cast<std::ptrdiff_t>(skip),
                          samples.end());
  }
  for (const auto& [name, h] : after.histograms) {
    obs::HistogramSnapshot out = h;
    auto it = before.histograms.find(name);
    if (it != before.histograms.end()) {
      out.count -= it->second.count;
      out.sum -= it->second.sum;
      for (std::size_t i = 0;
           i < out.buckets.size() && i < it->second.buckets.size(); ++i) {
        out.buckets[i] -= it->second.buckets[i];
      }
    }
    d.histograms[name] = std::move(out);
  }
  return d;
}

double HistogramMedian(const obs::HistogramSnapshot& h) {
  int64_t total = 0;
  for (int64_t c : h.buckets) total += c;
  if (total <= 0 || h.hi <= h.lo) return 0.0;
  const double width = (h.hi - h.lo) / static_cast<double>(h.buckets.size());
  const double half = static_cast<double>(total) / 2.0;
  double seen = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double c = static_cast<double>(h.buckets[i]);
    if (c > 0 && seen + c >= half) {
      return h.lo + width * (static_cast<double>(i) + (half - seen) / c);
    }
    seen += c;
  }
  return h.hi;
}

TimeLedger CloseLedger(TimeLedger l) {
  l.overhead = l.wall - l.plan - l.gang - l.wave;
  l.operators = l.busy - l.serde - l.codec - l.shuffle;
  return l;
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kWithin:
      return "within";
    case Verdict::kOutside:
      return "outside";
    case Verdict::kUnresolved:
      return "unresolved";
    case Verdict::kMissing:
      return "missing";
  }
  return "?";
}

Verdict Judge(double a, double b, double spread_a, double spread_b,
              double bound, bool lower_is_better) {
  if (bound < 0.0) return a == b ? Verdict::kWithin : Verdict::kOutside;
  const double worse = lower_is_better ? b - a : a - b;
  if (worse <= bound * std::fabs(a)) return Verdict::kWithin;
  return std::max(spread_a, spread_b) > bound ? Verdict::kUnresolved
                                              : Verdict::kOutside;
}

namespace {

// Untraced samples of one metric of one workload across runs.
struct Summary {
  std::vector<double> values;
  std::vector<double> spreads;  // within-run spreads, when reported
};
struct RunIndex {
  std::set<std::string> workloads;  // every workload with a timed run
  std::map<std::pair<std::string, std::string>, Summary> metrics;

  const Summary* Find(const std::string& workload, const std::string& metric) const {
    auto it = metrics.find({workload, metric});
    return it == metrics.end() ? nullptr : &it->second;
  }
};

void IndexRun(const obs::JsonValue& run, RunIndex* index) {
  if (run.Get("traced").AsBool()) return;
  const std::string& workload = run.Get("workload").AsString();
  index->workloads.insert(workload);
  for (const auto& [name, m] : run.Get("metrics").members()) {
    Summary& s = index->metrics[{workload, name}];
    s.values.push_back(m.Get("value").AsNumber());
    if (m.Has("spread")) s.spreads.push_back(m.Get("spread").AsNumber());
  }
}

RunIndex Index(const obs::JsonValue& file) {
  RunIndex index;
  if (file.Has("runs")) {
    for (const obs::JsonValue& run : file.Get("runs").items()) {
      IndexRun(run, &index);
    }
  } else {
    IndexRun(file, &index);
  }
  return index;
}

// Across several runs the spread is theirs; a single run falls back to
// the spread it measured over its own passes.
double SpreadOf(const Summary& s) {
  if (s.values.size() > 1) return Spread(s.values);
  return s.spreads.empty() ? 0.0 : s.spreads.front();
}

}  // namespace

Result<std::vector<CompareRow>> CompareRuns(const obs::JsonValue& a,
                                            const obs::JsonValue& b,
                                            const obs::JsonValue& benchmark) {
  struct Rule {
    std::string metric;
    double bound;
    bool lower_is_better;
  };
  std::vector<Rule> rules;
  for (const obs::JsonValue& m : benchmark.Get("end_to_end").items()) {
    if (!m.Get("name").is_string() || !m.Get("bound").is_number()) {
      return Status::InvalidArgument(
          "BENCHMARK.json end_to_end entries need a name and a bound");
    }
    rules.push_back({m.Get("name").AsString(), m.Get("bound").AsNumber(),
                     m.Get("better").AsString() != "higher"});
  }
  // Zero-tolerance counts: answers and failures must match exactly.
  rules.push_back({"wrong_answers", -1.0, true});
  rules.push_back({"failed_frac", -1.0, true});

  const RunIndex ia = Index(a);
  const RunIndex ib = Index(b);
  std::set<std::string> workloads = ia.workloads;
  workloads.insert(ib.workloads.begin(), ib.workloads.end());
  std::vector<CompareRow> rows;
  for (const std::string& workload : workloads) {
    for (const Rule& r : rules) {
      CompareRow row;
      row.workload = workload;
      row.metric = r.metric;
      const Summary* sa = ia.Find(workload, r.metric);
      const Summary* sb = ib.Find(workload, r.metric);
      row.a = sa ? Median(sa->values) : std::nan("");
      row.b = sb ? Median(sb->values) : std::nan("");
      row.verdict = sa && sb ? Judge(row.a, row.b, SpreadOf(*sa), SpreadOf(*sb), r.bound,
                                     r.lower_is_better)
                             : Verdict::kMissing;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace e2e
}  // namespace swift
