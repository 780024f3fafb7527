// Tests for the BenchReport emitter (src/obs/bench_report.h) and the benchdiff
// comparator core (tools/benchdiff/): schema round-trip through the real parser,
// byte-stability of identical runs, and the pass / warn / fail threshold matrix —
// including the acceptance cases (an injected 2x slowdown and a fingerprint change
// must both be detected).
#include "src/obs/bench_report.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/export.h"
#include "tools/benchdiff/diff.h"

namespace totoro {
namespace {

using benchdiff::DiffOptions;
using benchdiff::DiffReports;
using benchdiff::Issue;
using benchdiff::ParseReport;
using benchdiff::Report;
using benchdiff::Severity;

BenchReport MakeSample() {
  BenchReport report("sample");
  report.SetMeta("seed", "42");
  report.SetMeta("workload", "nodes=100");
  report.SetMetric("mean_hops", 3.25, "hops", 0.0);
  report.SetMetric("events_per_sec", 1.0e6, "events/s", 0.5);
  report.SetMetric("route_ms", 120.0, "ms", 0.1);
  report.SetFingerprint("route_stats", FingerprintBytes("delivered=100"));
  return report;
}

Report Parse(const BenchReport& report) {
  Report out;
  std::string error;
  EXPECT_TRUE(ParseReport(report.ToJson(), &out, &error)) << error;
  return out;
}

TEST(BenchReportTest, JsonRoundTripsThroughBenchdiffParser) {
  const BenchReport report = MakeSample();
  const Report parsed = Parse(report);
  EXPECT_EQ(parsed.name, "sample");
  EXPECT_EQ(parsed.meta.at("seed"), "42");
  EXPECT_EQ(parsed.meta.at("workload"), "nodes=100");
  ASSERT_EQ(parsed.metrics.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.metrics.at("mean_hops").value, 3.25);
  EXPECT_DOUBLE_EQ(parsed.metrics.at("mean_hops").tolerance, 0.0);
  EXPECT_EQ(parsed.metrics.at("events_per_sec").unit, "events/s");
  EXPECT_DOUBLE_EQ(parsed.metrics.at("events_per_sec").tolerance, 0.5);
  ASSERT_EQ(parsed.fingerprints.size(), 1u);
  char expect[17];
  std::snprintf(expect, sizeof(expect), "%016llx",
                static_cast<unsigned long long>(FingerprintBytes("delivered=100")));
  EXPECT_EQ(parsed.fingerprints.at("route_stats"), expect);
}

TEST(BenchReportTest, DoublesRoundTripExactly) {
  BenchReport report("roundtrip");
  const double awkward = 0.1 + 0.2;  // Not representable; %.17g must preserve it.
  report.SetMetric("awkward", awkward, "x", 0.0);
  const Report parsed = Parse(report);
  EXPECT_EQ(parsed.metrics.at("awkward").value, awkward);
}

TEST(BenchReportTest, IdenticalRunsProduceByteEqualJson) {
  // The determinism contract: no timestamps, name-ordered maps, stable formatting.
  EXPECT_EQ(MakeSample().ToJson(), MakeSample().ToJson());
}

TEST(BenchReportTest, WriteToEmitsParseableFile) {
  const BenchReport report = MakeSample();
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(report.WriteTo(dir));
  std::ifstream in(dir + (dir.back() == '/' ? "" : "/") + "BENCH_sample.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), report.ToJson());
}

TEST(BenchReportTest, ParserRejectsMalformedAndWrongSchema) {
  Report out;
  std::string error;
  EXPECT_FALSE(ParseReport("{not json", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseReport("{\"schema\": 2, \"name\": \"x\"}", &out, &error));
  EXPECT_FALSE(ParseReport("{\"name\": \"x\"}", &out, &error));
}

// --- DiffReports threshold matrix ---------------------------------------------------

Severity Diff(const BenchReport& baseline, const BenchReport& current,
              std::vector<Issue>* issues, double fail_above = 0.25) {
  DiffOptions options;
  options.fail_above = fail_above;
  return DiffReports(Parse(baseline), Parse(current), options, issues);
}

TEST(BenchDiffTest, IdenticalReportsPass) {
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), MakeSample(), &issues), Severity::kNote);
}

TEST(BenchDiffTest, InjectedTwoXSlowdownFails) {
  // Acceptance case: a 2x wall-clock regression must fail even through the widest
  // committed tolerance (0.5 on events_per_sec — a rate, so lower is worse).
  BenchReport slow = MakeSample();
  slow.SetMetric("events_per_sec", 0.5e6, "events/s", 0.5);
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), slow, &issues), Severity::kFail);
}

TEST(BenchDiffTest, FingerprintChangeFails) {
  // Acceptance case: any fingerprint drift means the run is no longer bit-identical.
  BenchReport drifted = MakeSample();
  drifted.SetFingerprint("route_stats", FingerprintBytes("delivered=99"));
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), drifted, &issues), Severity::kFail);
}

TEST(BenchDiffTest, MissingFingerprintOrMetricFails) {
  BenchReport missing_fp("sample");
  missing_fp.SetMeta("workload", "nodes=100");
  missing_fp.SetMetric("mean_hops", 3.25, "hops", 0.0);
  missing_fp.SetMetric("events_per_sec", 1.0e6, "events/s", 0.5);
  missing_fp.SetMetric("route_ms", 120.0, "ms", 0.1);
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), missing_fp, &issues), Severity::kFail);

  BenchReport missing_metric = MakeSample();
  std::vector<Issue> more;
  BenchReport base = MakeSample();
  base.SetMetric("extra_only_in_baseline", 1.0, "x", 0.0);
  EXPECT_EQ(Diff(base, missing_metric, &more), Severity::kFail);
}

TEST(BenchDiffTest, ExactMetricMismatchFails) {
  // tolerance == 0 marks a deterministic (virtual-time) value; any drift fails.
  BenchReport drifted = MakeSample();
  drifted.SetMetric("mean_hops", 3.26, "hops", 0.0);
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), drifted, &issues), Severity::kFail);
}

TEST(BenchDiffTest, RegressionInsideToleranceIsQuiet) {
  BenchReport ok = MakeSample();
  ok.SetMetric("route_ms", 126.0, "ms", 0.1);  // +5% against a 10% budget.
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), ok, &issues), Severity::kNote);
}

TEST(BenchDiffTest, RegressionBetweenToleranceAndFailAboveWarns) {
  BenchReport slower = MakeSample();
  slower.SetMetric("route_ms", 138.0, "ms", 0.1);  // +15%: above 10%, below 25%.
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), slower, &issues), Severity::kWarn);
}

TEST(BenchDiffTest, RegressionAboveFailAboveFails) {
  BenchReport slower = MakeSample();
  slower.SetMetric("route_ms", 156.0, "ms", 0.1);  // +30% > 25%.
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), slower, &issues), Severity::kFail);
}

TEST(BenchDiffTest, ImprovementsNeverFail) {
  BenchReport faster = MakeSample();
  faster.SetMetric("route_ms", 40.0, "ms", 0.1);             // 3x faster.
  faster.SetMetric("events_per_sec", 3.0e6, "events/s", 0.5);  // 3x higher rate.
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), faster, &issues), Severity::kNote);
}

TEST(BenchDiffTest, WallMetricThatReadsZeroFails) {
  // A wall time that reads 0 was not measured (say, a profiler left off); the
  // equivalent slowdown would read -100% and pass as a speed-up.
  BenchReport unmeasured = MakeSample();
  unmeasured.SetMetric("route_ms", 0.0, "ms", 0.1);
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), unmeasured, &issues), Severity::kFail);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].what.find("collapsed"), std::string::npos);

  BenchReport negative = MakeSample();
  negative.SetMetric("route_ms", -1.0, "ms", 0.1);
  std::vector<Issue> more;
  EXPECT_EQ(Diff(MakeSample(), negative, &more), Severity::kFail);

  BenchReport stalled = MakeSample();
  stalled.SetMetric("events_per_sec", 0.0, "events/s", 0.5);
  std::vector<Issue> rate;
  EXPECT_EQ(Diff(MakeSample(), stalled, &rate), Severity::kFail);
}

TEST(BenchDiffTest, WorkloadMismatchSkipsComparison) {
  BenchReport other = MakeSample();
  other.SetMeta("workload", "nodes=999999");
  other.SetMetric("mean_hops", 99.0, "hops", 0.0);  // Would fail if compared.
  std::vector<Issue> issues;
  EXPECT_EQ(Diff(MakeSample(), other, &issues), Severity::kNote);
  ASSERT_FALSE(issues.empty());  // The skip is visible, not silent.
}

}  // namespace
}  // namespace totoro
