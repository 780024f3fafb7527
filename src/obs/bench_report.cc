#include "src/obs/bench_report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profiler.h"

namespace totoro {

namespace {

bool ValidReportName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  });
}

}  // namespace

BenchReport::BenchReport(const std::string& name) : name_(name) {
  CHECK(ValidReportName(name));
}

void BenchReport::SetMeta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

void BenchReport::SetMetric(const std::string& name, double value,
                            const std::string& unit, double tolerance) {
  Metric m;
  m.value = value;
  m.unit = unit;
  m.tolerance = tolerance;
  metrics_[name] = std::move(m);
}

void BenchReport::SetFingerprint(const std::string& name, uint64_t fingerprint) {
  fingerprints_[name] = fingerprint;
}

std::string BenchReport::ToJson() const {
  std::string out("{\"schema\":1,\"name\":\"");
  out.append(JsonEscape(name_));
  out.append("\",\"meta\":{");
  bool first = true;
  for (const auto& [key, value] : meta_) {
    if (!first) {
      out.append(",");
    }
    first = false;
    out.append("\"");
    out.append(JsonEscape(key));
    out.append("\":\"");
    out.append(JsonEscape(value));
    out.append("\"");
  }
  out.append("},\"metrics\":{");
  first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) {
      out.append(",");
    }
    first = false;
    out.append("\"");
    out.append(JsonEscape(name));
    AppendF(&out, "\":{\"value\":%.17g,\"unit\":\"", metric.value);
    out.append(JsonEscape(metric.unit));
    AppendF(&out, "\",\"tolerance\":%.17g}", metric.tolerance);
  }
  out.append("},\"fingerprints\":{");
  first = true;
  for (const auto& [name, fingerprint] : fingerprints_) {
    if (!first) {
      out.append(",");
    }
    first = false;
    out.append("\"");
    out.append(JsonEscape(name));
    AppendF(&out, "\":\"%016" PRIx64 "\"", fingerprint);
  }
  out.append("}}\n");
  return out;
}

bool BenchReport::WriteTo(const std::string& dir) const {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') {
    path.push_back('/');
  }
  path += "BENCH_" + name_ + ".json";
  if (!WriteStringToFile(path, ToJson())) {
    return false;
  }
  std::printf("bench-report: %s\n", path.c_str());
  return true;
}

bool BenchReport::Write() const {
  const char* dir = EnvString("TOTORO_BENCH_REPORT_DIR");
  const std::string resolved = dir == nullptr ? "." : dir;
  // Surface the phase profile when TOTORO_PROFILE is on: fold the deterministic
  // fields into this thread's metrics registry, print the tree (wall-clock included)
  // to stderr so stdout stays byte-stable, and drop a Chrome trace next to the report.
  Profiler& profiler = GlobalProfiler();
  if (profiler.enabled()) {
    profiler.PublishToMetrics(&GlobalMetrics());
    std::fprintf(stderr, "%s", profiler.ReportText().c_str());
    if (resolved != "off") {
      std::string trace_path = resolved;
      if (!trace_path.empty() && trace_path.back() != '/') {
        trace_path.push_back('/');
      }
      trace_path += "PROFILE_" + name_ + ".json";
      if (WriteStringToFile(trace_path, ProfilerToChromeJson(profiler))) {
        std::fprintf(stderr, "profile-trace: %s\n", trace_path.c_str());
      }
    }
  }
  if (resolved == "off") {
    return true;
  }
  return WriteTo(resolved);
}

}  // namespace totoro
