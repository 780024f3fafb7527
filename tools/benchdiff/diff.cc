#include "tools/benchdiff/diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "tools/benchdiff/json.h"

namespace totoro::benchdiff {

namespace {

std::string FormatDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

bool HigherIsBetter(const std::string& unit) {
  return unit.find("/s") != std::string::npos;
}

void Add(std::vector<Issue>* issues, Severity* worst, Severity severity,
         const std::string& report, std::string what) {
  Issue issue;
  issue.severity = severity;
  issue.report = report;
  issue.what = std::move(what);
  issues->push_back(std::move(issue));
  if (static_cast<int>(severity) > static_cast<int>(*worst)) {
    *worst = severity;
  }
}

}  // namespace

const char* SeverityLabel(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarn:
      return "warn";
    case Severity::kFail:
      return "FAIL";
  }
  return "?";
}

bool ParseReport(const std::string& json_text, Report* out, std::string* error) {
  JsonValue root;
  if (!ParseJson(json_text, &root, error)) {
    return false;
  }
  if (!root.is_object()) {
    *error = "top-level value is not an object";
    return false;
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_number() || schema->number_value != 1.0) {
    *error = "missing or unsupported schema version (want 1)";
    return false;
  }
  const JsonValue* name = root.Find("name");
  if (name == nullptr || !name->is_string() || name->string_value.empty()) {
    *error = "missing report name";
    return false;
  }
  out->name = name->string_value;
  if (const JsonValue* meta = root.Find("meta"); meta != nullptr && meta->is_object()) {
    for (const auto& [key, value] : meta->object) {
      if (!value.is_string()) {
        *error = "meta value for '" + key + "' is not a string";
        return false;
      }
      out->meta[key] = value.string_value;
    }
  }
  if (const JsonValue* metrics = root.Find("metrics");
      metrics != nullptr && metrics->is_object()) {
    for (const auto& [key, value] : metrics->object) {
      const JsonValue* v = value.Find("value");
      if (v == nullptr || !v->is_number()) {
        *error = "metric '" + key + "' has no numeric value";
        return false;
      }
      ReportMetric m;
      m.value = v->number_value;
      if (const JsonValue* unit = value.Find("unit"); unit != nullptr && unit->is_string()) {
        m.unit = unit->string_value;
      }
      if (const JsonValue* tol = value.Find("tolerance");
          tol != nullptr && tol->is_number()) {
        m.tolerance = tol->number_value;
      }
      out->metrics[key] = std::move(m);
    }
  }
  if (const JsonValue* fps = root.Find("fingerprints");
      fps != nullptr && fps->is_object()) {
    for (const auto& [key, value] : fps->object) {
      if (!value.is_string()) {
        *error = "fingerprint '" + key + "' is not a string";
        return false;
      }
      out->fingerprints[key] = value.string_value;
    }
  }
  return true;
}

Severity DiffReports(const Report& baseline, const Report& current,
                     const DiffOptions& options, std::vector<Issue>* issues) {
  Severity worst = Severity::kNote;
  const std::string& name = baseline.name;
  if (current.name != baseline.name) {
    Add(issues, &worst, Severity::kFail, name,
        "report name mismatch: baseline '" + baseline.name + "' vs current '" +
            current.name + "'");
    return worst;
  }

  // Different workload (bench arguments) — nothing comparable; skip with a note.
  const auto base_workload = baseline.meta.find("workload");
  const auto cur_workload = current.meta.find("workload");
  const std::string base_wl =
      base_workload == baseline.meta.end() ? "" : base_workload->second;
  const std::string cur_wl = cur_workload == current.meta.end() ? "" : cur_workload->second;
  if (base_wl != cur_wl) {
    Add(issues, &worst, Severity::kNote, name,
        "workload differs ('" + base_wl + "' vs '" + cur_wl +
            "'); skipping comparison");
    return worst;
  }

  for (const auto& [fp_name, base_fp] : baseline.fingerprints) {
    const auto it = current.fingerprints.find(fp_name);
    if (it == current.fingerprints.end()) {
      Add(issues, &worst, Severity::kFail, name,
          "fingerprint '" + fp_name + "' missing from current run");
      continue;
    }
    if (it->second != base_fp) {
      Add(issues, &worst, Severity::kFail, name,
          "fingerprint '" + fp_name + "' changed: " + base_fp + " -> " + it->second +
              " (run is no longer bit-identical to the baseline)");
    }
  }
  for (const auto& [fp_name, fp] : current.fingerprints) {
    (void)fp;
    if (baseline.fingerprints.find(fp_name) == baseline.fingerprints.end()) {
      Add(issues, &worst, Severity::kNote, name,
          "new fingerprint '" + fp_name + "' (not in baseline)");
    }
  }

  for (const auto& [metric_name, base] : baseline.metrics) {
    const auto it = current.metrics.find(metric_name);
    if (it == current.metrics.end()) {
      Add(issues, &worst, Severity::kFail, name,
          "metric '" + metric_name + "' missing from current run");
      continue;
    }
    const ReportMetric& cur = it->second;
    if (base.tolerance <= 0.0) {
      if (cur.value != base.value) {
        Add(issues, &worst, Severity::kFail, name,
            "deterministic metric '" + metric_name + "' changed: " +
                FormatDouble(base.value) + " -> " + FormatDouble(cur.value));
      }
      continue;
    }
    if (base.value == 0.0) {
      Add(issues, &worst, Severity::kNote, name,
          "metric '" + metric_name + "' has zero baseline; skipping");
      continue;
    }
    // A rate at or below zero collapsed. So did a wall time, size or latency that reads
    // zero or less against a positive baseline: the phase stopped being measured (a
    // profiler left off, a scope gone), which is no speed-up.
    if (cur.value <= 0.0 && (base.value > 0.0 || HigherIsBetter(base.unit))) {
      Add(issues, &worst, Severity::kFail, name,
          "metric '" + metric_name + "' collapsed to " + FormatDouble(cur.value) + " " +
              base.unit + " (baseline " + FormatDouble(base.value) + ")");
      continue;
    }
    // Rates ("/s" units) measure regression as the equivalent slowdown
    // (base/current - 1), so halving a rate reads as a 100% regression — the same
    // number a doubled latency produces. Rate-domain (1 - current/base) would
    // saturate at 100% and let any slowdown pass a tolerance of 1.
    const double rel = HigherIsBetter(base.unit)
                           ? base.value / cur.value - 1.0
                           : (cur.value - base.value) / std::fabs(base.value);
    if (rel <= base.tolerance) {
      continue;  // Within budget (improvements land here too).
    }
    const double fail_at = std::max(base.tolerance, options.fail_above);
    const std::string detail =
        "metric '" + metric_name + "' regressed " +
        FormatDouble(rel * 100.0) + "% (" + FormatDouble(base.value) + " -> " +
        FormatDouble(cur.value) + " " + base.unit + ", tolerance " +
        FormatDouble(base.tolerance * 100.0) + "%)";
    Add(issues, &worst, rel > fail_at ? Severity::kFail : Severity::kWarn, name, detail);
  }
  for (const auto& [metric_name, metric] : current.metrics) {
    (void)metric;
    if (baseline.metrics.find(metric_name) == baseline.metrics.end()) {
      Add(issues, &worst, Severity::kNote, name,
          "new metric '" + metric_name + "' (not in baseline)");
    }
  }
  return worst;
}

}  // namespace totoro::benchdiff
