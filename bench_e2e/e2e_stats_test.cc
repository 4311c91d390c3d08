#include "e2e_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "exec/tpch.h"
#include "obs/json.h"
#include "runtime/local_runtime.h"
#include "sql/tpch_queries.h"

namespace swift {
namespace e2e {
namespace {

// JobRunStats::shuffle is the runtime-wide running total at job end, so
// summing it per query counts every earlier query again. The benchmark
// differences two readings instead; this pins both facts down.
TEST(E2eStatsTest, ShuffleTrafficIsADifferenceNotASumOfJobCopies) {
  LocalRuntimeConfig cfg;
  cfg.force_shuffle_kind = ShuffleKind::kRemote;
  LocalRuntime rt(cfg);
  TpchConfig tpch;
  tpch.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(tpch, rt.catalog()).ok());
  const std::string sql = TpchQuerySql(9).ValueOrDie();

  const ShuffleTally start = Tally(rt.shuffle_service()->stats());
  auto first = rt.RunSql(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const ShuffleTally middle = Tally(rt.shuffle_service()->stats());
  auto second = rt.RunSql(sql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const ShuffleTally end = Tally(rt.shuffle_service()->stats());

  const ShuffleTally one = middle - start;
  ASSERT_GT(one.framed_bytes, 0);
  // The same query writes the same bytes both times.
  EXPECT_EQ((end - middle).framed_bytes, one.framed_bytes);
  EXPECT_EQ((end - middle).writes, one.writes);
  EXPECT_EQ((end - start).framed_bytes, 2 * one.framed_bytes);
  // Per-job copies are cumulative: their sum counts the first query twice.
  const int64_t summed = first->stats.shuffle.bytes_transferred +
                         second->stats.shuffle.bytes_transferred;
  EXPECT_EQ(summed, 3 * one.framed_bytes);

  ShuffleTally total;
  total += one;
  total += end - middle;
  EXPECT_EQ(total.framed_bytes, (end - start).framed_bytes);
  EXPECT_EQ(total.raw_bytes(), (end - start).raw_bytes());
}

TEST(E2eStatsTest, RawBytesUndoCompression) {
  ShuffleTally t;
  t.framed_bytes = 1000;  // 400 raw bytes plus 150 bytes of frames
  t.frame_bytes = 150;
  t.frame_raw_bytes = 600;
  EXPECT_EQ(t.raw_bytes(), 1450);
}

TEST(E2eStatsTest, RegistryDeltaKeepsOnlyThePhase) {
  obs::MetricsRegistry reg;
  reg.counter("c")->Add(5);
  reg.series("s")->Record(1.0);
  reg.histogram("h", 0.0, 10.0, 10)->Record(2.5);
  const auto before = reg.TakeSnapshot();
  reg.counter("c")->Add(3);
  reg.counter("new")->Add(2);
  reg.series("s")->Record(7.0);
  reg.histogram("h", 0.0, 10.0, 10)->Record(8.5);
  const auto d = RegistryDelta(before, reg.TakeSnapshot());
  EXPECT_EQ(d.counters.at("c"), 3);
  EXPECT_EQ(d.counters.at("new"), 2);
  EXPECT_EQ(d.series.at("s"), std::vector<double>{7.0});
  EXPECT_EQ(d.histograms.at("h").count, 1);
  EXPECT_DOUBLE_EQ(d.histograms.at("h").sum, 8.5);
  EXPECT_EQ(d.histograms.at("h").buckets[2], 0);
  EXPECT_EQ(d.histograms.at("h").buckets[8], 1);
}

// A tail percentile is reported only when at least ten samples lie
// beyond it; otherwise it is omitted.
TEST(E2eStatsTest, TailPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(200, 0.95), 10u);
  EXPECT_EQ(SamplesBeyond(199, 0.95), 9u);
  EXPECT_EQ(SamplesBeyond(220, 0.95), 11u);  // the timed runs' sample count
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);

  std::vector<double> samples;
  for (int i = 1; i <= 200; ++i) samples.push_back(i);
  EXPECT_EQ(TailPercentile(samples, 0.95), std::optional<double>(190.0));
  EXPECT_FALSE(TailPercentile(samples, 0.99).has_value());
  samples.pop_back();
  EXPECT_FALSE(TailPercentile(samples, 0.95).has_value());
  EXPECT_TRUE(TailPercentile(samples, 0.90).has_value());
}

TEST(E2eStatsTest, MedianAndSpread) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Spread({5.0}), 0.0);
  // Quartiles 2 and 6 around a median of 4.
  EXPECT_DOUBLE_EQ(Spread({1, 2, 3, 4, 5, 6, 7, 8}), (6.0 - 2.0) / 4.0);
}

TEST(E2eStatsTest, HistogramMedianInterpolatesInsideTheBucket) {
  obs::HistogramSnapshot h;
  h.lo = 0.0;
  h.hi = 4.0;
  h.buckets = {0, 2, 2, 0};  // four samples in [1, 3)
  EXPECT_DOUBLE_EQ(HistogramMedian(h), 2.0);
  h.buckets = {0, 0, 0, 0};
  EXPECT_EQ(HistogramMedian(h), 0.0);
}

TEST(E2eStatsTest, LedgerResidualsCloseBothEquations) {
  TimeLedger l;
  l.wall = 1.0;
  l.plan = 0.1;
  l.gang = 0.2;
  l.wave = 0.6;
  l.busy = 2.0;
  l.serde = 0.5;
  l.codec = 0.25;
  l.shuffle = 0.25;
  l = CloseLedger(l);
  EXPECT_NEAR(l.overhead, 0.1, 1e-12);
  EXPECT_NEAR(l.operators, 1.0, 1e-12);
  EXPECT_NEAR(l.plan + l.gang + l.wave + l.overhead, l.wall, 1e-12);
  EXPECT_NEAR(l.serde + l.codec + l.shuffle + l.operators, l.busy, 1e-12);
  EXPECT_FALSE(l.residual_negative());

  l.serde = 3.0;  // estimates that overshoot the measured busy time
  l = CloseLedger(l);
  EXPECT_LT(l.operators, 0.0);
  EXPECT_TRUE(l.residual_negative());
}

TEST(E2eStatsTest, JudgeAppliesBoundInTheWorseDirection) {
  // Lower is better, 10% bound.
  EXPECT_EQ(Judge(1.0, 1.09, 0, 0, 0.10, true), Verdict::kWithin);
  EXPECT_EQ(Judge(1.0, 0.50, 0, 0, 0.10, true), Verdict::kWithin);
  EXPECT_EQ(Judge(1.0, 1.20, 0, 0, 0.10, true), Verdict::kOutside);
  EXPECT_EQ(Judge(1.0, 1.20, 0.15, 0, 0.10, true), Verdict::kUnresolved);
  // Higher is better.
  EXPECT_EQ(Judge(1.0, 0.99, 0, 0, 0.02, false), Verdict::kWithin);
  EXPECT_EQ(Judge(1.0, 0.90, 0, 0, 0.02, false), Verdict::kOutside);
  // Negative bound: exact equality.
  EXPECT_EQ(Judge(0.0, 0.0, 0, 0, -1.0, true), Verdict::kWithin);
  EXPECT_EQ(Judge(0.0, 1.0, 0, 0, -1.0, true), Verdict::kOutside);
}

TEST(E2eStatsTest, CompareRunsUsesBoundsFromBenchmarkFile) {
  const auto bench = obs::ParseJson(R"({"end_to_end": [
      {"name": "suite_s", "unit": "s", "better": "lower", "bound": 0.1},
      {"name": "slo_attainment", "unit": "fraction", "better": "higher", "bound": 0.02}]})")
                         .ValueOrDie();
  const auto a = obs::ParseJson(R"({"runs": [
      {"workload": "w", "traced": false, "metrics": {
        "suite_s": {"value": 1.0, "unit": "s"},
        "slo_attainment": {"value": 1.0, "unit": "fraction"},
        "wrong_answers": {"value": 0, "unit": "count"}}},
      {"workload": "w", "traced": true, "metrics": {
        "suite_s": {"value": 9.0, "unit": "s"}}}]})")
                     .ValueOrDie();
  const auto b = obs::ParseJson(R"({"runs": [
      {"workload": "w", "traced": false, "metrics": {
        "suite_s": {"value": 1.3, "unit": "s"},
        "slo_attainment": {"value": 0.99, "unit": "fraction"},
        "wrong_answers": {"value": 1, "unit": "count"}}}]})")
                     .ValueOrDie();
  auto rows = CompareRuns(a, b, bench);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::map<std::string, Verdict> got;
  for (const CompareRow& r : *rows) got[r.metric] = r.verdict;
  ASSERT_EQ(got.size(), 4u);  // the traced run is not compared
  EXPECT_EQ(got["suite_s"], Verdict::kOutside);
  EXPECT_EQ(got["slo_attainment"], Verdict::kWithin);
  EXPECT_EQ(got["wrong_answers"], Verdict::kOutside);
  EXPECT_EQ(got["failed_frac"], Verdict::kMissing);  // neither run printed it
}

// A workload or metric absent from one side must not pass unnoticed: a
// crashed run or a renamed metric would otherwise compare nothing.
TEST(E2eStatsTest, CompareRunsReportsPairsMissingFromEitherSide) {
  const auto bench = obs::ParseJson(R"({"end_to_end": [
      {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15}]})")
                         .ValueOrDie();
  const auto a = obs::ParseJson(R"({"runs": [
      {"workload": "w1", "traced": false, "metrics": {
        "setup_s": {"value": 1.0, "unit": "s"}}},
      {"workload": "w2", "traced": false, "metrics": {
        "setup_s": {"value": 1.0, "unit": "s"}}}]})")
                     .ValueOrDie();
  const auto b = obs::ParseJson(R"({"runs": [
      {"workload": "w1", "traced": false, "metrics": {
        "setup_s": {"value": 1.05, "unit": "s"}}},
      {"workload": "w3", "traced": false, "metrics": {}}]})")
                     .ValueOrDie();
  auto rows = CompareRuns(a, b, bench);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::map<std::pair<std::string, std::string>, CompareRow> got;
  for (const CompareRow& r : *rows) got[{r.workload, r.metric}] = r;
  // Three workloads, each with setup_s, wrong_answers and failed_frac.
  ASSERT_EQ(got.size(), 9u);
  EXPECT_EQ((got[{"w1", "setup_s"}].verdict), Verdict::kWithin);
  const CompareRow& gone = got[{"w2", "setup_s"}];  // b lacks workload w2
  EXPECT_EQ(gone.verdict, Verdict::kMissing);
  EXPECT_EQ(gone.a, 1.0);
  EXPECT_TRUE(std::isnan(gone.b));
  EXPECT_EQ((got[{"w3", "setup_s"}].verdict), Verdict::kMissing);  // a lacks w3
  EXPECT_EQ((got[{"w1", "wrong_answers"}].verdict), Verdict::kMissing);
}

}  // namespace
}  // namespace e2e
}  // namespace swift
