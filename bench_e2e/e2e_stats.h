#ifndef SWIFT_BENCH_E2E_E2E_STATS_H_
#define SWIFT_BENCH_E2E_E2E_STATS_H_

// Pure helpers of the end-to-end benchmark: sample summaries, counter
// differences, the time ledger, and the run-to-run comparison. Kept out
// of bench_e2e.cc so e2e_stats_test can pin them down.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "shuffle/shuffle_service.h"

namespace swift {
namespace e2e {

/// \brief Nearest-rank median; 0 for no samples.
double Median(std::vector<double> samples);

/// \brief Interquartile range over the median (0 when the median is 0
/// or there are fewer than two samples): the run-to-run spread.
double Spread(std::vector<double> samples);

/// \brief Samples strictly above the nearest-rank q-percentile of n.
std::size_t SamplesBeyond(std::size_t n, double q);

/// \brief The q-percentile when at least ten samples lie beyond it, else
/// nullopt: a tail percentile is reported only where the sample count
/// supports it.
std::optional<double> TailPercentile(std::vector<double> samples, double q);

/// \brief Shuffle-plane counters of one phase. ShuffleServiceStats is a
/// running total for the whole runtime (and JobRunStats::shuffle is a
/// copy of it taken when a job ends), so a phase's traffic is always
/// the difference of two readings, never a sum of per-job copies.
struct ShuffleTally {
  int64_t writes = 0;
  int64_t reads = 0;
  int64_t framed_bytes = 0;  ///< bytes written to the plane (frames as sent)
  int64_t frames = 0;
  int64_t skipped = 0;       ///< eligible writes that stayed raw
  int64_t frame_raw_bytes = 0;
  int64_t frame_bytes = 0;

  /// Bytes the writers serialized before any compression.
  int64_t raw_bytes() const { return framed_bytes - frame_bytes + frame_raw_bytes; }
};
ShuffleTally Tally(const ShuffleServiceStats& s);
ShuffleTally operator-(const ShuffleTally& after, const ShuffleTally& before);
ShuffleTally& operator+=(ShuffleTally& sum, const ShuffleTally& part);

/// \brief What a registry recorded between two snapshots: counter
/// differences, the series samples appended after `before`, and
/// histogram count/sum/bucket differences.
obs::MetricsRegistry::Snapshot RegistryDelta(
    const obs::MetricsRegistry::Snapshot& before,
    const obs::MetricsRegistry::Snapshot& after);

/// \brief Median of a histogram by linear interpolation inside the
/// bucket holding the middle sample; 0 for an empty histogram.
double HistogramMedian(const obs::HistogramSnapshot& h);

/// \brief The two conservation equations of the traced run, per query:
///   wall = plan + gang + wave + overhead          (overhead is the rest)
///   busy = serde + codec + shuffle + operators    (operators is the rest)
/// Both residuals close their equation by construction; a negative
/// operator residual means the layer estimates overshoot the measured
/// task time and is flagged.
struct TimeLedger {
  double wall = 0, plan = 0, gang = 0, wave = 0, overhead = 0;
  double busy = 0, serde = 0, codec = 0, shuffle = 0, operators = 0;
  bool residual_negative() const { return operators < 0.0; }
};
TimeLedger CloseLedger(TimeLedger ledger);

/// \brief Verdict of one (metric, workload) pair of --compare. kMissing
/// marks a pair one of the two files lacks, such as a crashed run or a
/// metric that was renamed or never printed.
enum class Verdict { kWithin, kOutside, kUnresolved, kMissing };
const char* VerdictName(Verdict v);

/// \brief b against a: within when b is no worse than a by more than
/// `bound` (a share of a; for lower_is_better a 10% bound admits
/// b <= 1.1 a). A worse b is unresolved rather than outside when either
/// side's own spread exceeds the bound. bound < 0 demands equality.
Verdict Judge(double a, double b, double spread_a, double spread_b,
              double bound, bool lower_is_better);

/// \brief One row of --compare; a side that lacks the pair reads NaN.
struct CompareRow {
  std::string workload;
  std::string metric;
  double a = 0, b = 0;
  Verdict verdict = Verdict::kWithin;
};

/// \brief Compares two bench_e2e result files (a single run, or
/// {"runs":[...]} as written by run_all.sh) on every end-to-end metric
/// of `benchmark` (the parsed BENCHMARK.json) plus wrong_answers and
/// failed_frac, which must be equal. Every workload with a timed run in
/// either file gets one row per metric; a pair that either file lacks is
/// kMissing.
Result<std::vector<CompareRow>> CompareRuns(const obs::JsonValue& a,
                                            const obs::JsonValue& b,
                                            const obs::JsonValue& benchmark);

}  // namespace e2e
}  // namespace swift

#endif  // SWIFT_BENCH_E2E_E2E_STATS_H_
