// benchdiff core: parse BENCH_*.json reports and compare current against baseline.
//
// Comparison semantics (one Metric at a time, driven by the BASELINE file so a
// baseline is the contract):
//   - fingerprints   always compare exactly; any mismatch or absence is a failure
//                    (a changed fingerprint means the run is no longer bit-identical).
//   - tolerance == 0 deterministic metric (virtual-time result, count): values must
//                    compare exactly; any difference is a failure.
//   - tolerance > 0  wall-clock metric: only regressions matter. Units containing
//                    "/s" count higher-is-better (rates), everything else
//                    lower-is-better (latencies). Both are measured as an equivalent
//                    slowdown — current/base - 1 for latencies, base/current - 1 for
//                    rates — so a halved rate and a doubled latency both read 100%.
//                    Regressions above the metric's own tolerance warn; above
//                    max(tolerance, DiffOptions::fail_above) they fail. Improvements
//                    never fail, but a value at or below zero against a positive
//                    baseline (or any rate at or below zero) fails as collapsed: the
//                    metric stopped being measured.
//   - meta "workload" differing between baseline and current skips the whole report
//    (with a note) — a dev run with different bench arguments is not a regression.
//
// The library exists separately from main.cc so tests/bench_report_test.cc can drive
// pass/fail/threshold cases directly.
#ifndef TOOLS_BENCHDIFF_DIFF_H_
#define TOOLS_BENCHDIFF_DIFF_H_

#include <map>
#include <string>
#include <vector>

namespace totoro::benchdiff {

struct ReportMetric {
  double value = 0.0;
  std::string unit;
  double tolerance = 0.0;
};

// One parsed BENCH_<name>.json.
struct Report {
  std::string name;
  std::map<std::string, std::string> meta;
  std::map<std::string, ReportMetric> metrics;
  std::map<std::string, std::string> fingerprints;  // 16-hex-char strings.
};

// Parses a BENCH report. Returns false (with a reason) on malformed JSON or a
// missing/unsupported schema version.
bool ParseReport(const std::string& json_text, Report* out, std::string* error);

enum class Severity { kNote, kWarn, kFail };

struct Issue {
  Severity severity = Severity::kNote;
  std::string report;  // Bench name the issue belongs to.
  std::string what;    // Human-readable description.
};

struct DiffOptions {
  // Relative regression above which a tolerance>0 metric fails even if its own
  // tolerance is smaller. CI's "warn-then-fail above 25%".
  double fail_above = 0.25;
};

// Compares `current` against `baseline`, appending issues. Returns the worst
// severity produced (kNote when the reports agree).
Severity DiffReports(const Report& baseline, const Report& current,
                     const DiffOptions& options, std::vector<Issue>* issues);

// "note" / "warn" / "FAIL".
const char* SeverityLabel(Severity severity);

}  // namespace totoro::benchdiff

#endif  // TOOLS_BENCHDIFF_DIFF_H_
