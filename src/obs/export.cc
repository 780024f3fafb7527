#include "src/obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "src/common/logging.h"
#include "src/obs/profiler.h"

namespace totoro {
namespace {

void AppendF(std::string* out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buffer, static_cast<size_t>(std::min(n, static_cast<int>(sizeof(buffer) - 1))));
  }
}

// Numbers must stay valid JSON: NaN/inf have no literal, so clamp them.
void AppendJsonNumber(std::string* out, double value) {
  if (std::isnan(value)) {
    out->append("0");
  } else if (std::isinf(value)) {
    out->append(value > 0 ? "1e308" : "-1e308");
  } else {
    AppendF(out, "%.6g", value);
  }
}

void AppendArgs(std::string* out, const SpanRecord& span) {
  AppendF(out, "\"args\":{\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
               ",\"parent_span_id\":%" PRIu64,
          span.trace_id, span.span_id, span.parent_span_id);
  for (const auto& [key, value] : span.args) {
    out->append(",\"");
    out->append(JsonEscape(key));
    out->append("\":\"");
    out->append(JsonEscape(value));
    out->append("\"");
  }
  out->append("}");
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(&out, "\\u%04x", static_cast<unsigned char>(c));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string TraceToChromeJson(const Tracer& tracer) {
  std::string out;
  out.reserve(tracer.spans().size() * 160 + 64);
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const SpanRecord& span : tracer.spans()) {
    if (!first) {
      out.append(",");
    }
    first = false;
    out.append("{\"name\":\"");
    out.append(JsonEscape(span.name));
    out.append("\",\"cat\":\"");
    out.append(JsonEscape(span.category));
    // Virtual ms -> trace-event microseconds.
    const double ts_us = span.start_ms * 1000.0;
    if (span.instant) {
      AppendF(&out, "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f", ts_us);
    } else {
      const double dur_us = (span.end_ms - span.start_ms) * 1000.0;
      AppendF(&out, "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f", ts_us, dur_us);
    }
    AppendF(&out, ",\"pid\":0,\"tid\":%" PRIu64 ",",
            static_cast<uint64_t>(span.host));
    AppendArgs(&out, span);
    out.append("}");
  }
  out.append("]}");
  return out;
}

namespace {

// Lays out one accumulated phase as an "X" slice starting at `start_us`, then its
// children (name order) packed sequentially inside it. Returns the slice duration.
double AppendProfilerSlice(const std::vector<Profiler::PhaseNode>& nodes, size_t index,
                           double start_us, bool* first, std::string* out) {
  const Profiler::PhaseNode& node = nodes[index];
  const double dur_us = node.stats.wall_seconds * 1e6;
  if (!*first) {
    out->append(",");
  }
  *first = false;
  out->append("{\"name\":\"");
  out->append(JsonEscape(node.name));
  AppendF(out, "\",\"cat\":\"profile\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
               "\"pid\":0,\"tid\":0,\"args\":{\"calls\":%" PRIu64
               ",\"virtual_ms\":%.3f,\"events\":%" PRIu64 "}}",
          start_us, dur_us, node.stats.calls, node.stats.virtual_ms, node.stats.events);
  double child_start = start_us;
  for (const auto& [name, child] : node.children) {
    (void)name;
    child_start += AppendProfilerSlice(nodes, child, child_start, first, out);
  }
  return dur_us;
}

}  // namespace

std::string ProfilerToChromeJson(const Profiler& profiler) {
  std::string out("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  double start_us = 0.0;
  for (const auto& [name, child] : profiler.nodes()[0].children) {
    (void)name;
    start_us += AppendProfilerSlice(profiler.nodes(), child, start_us, &first, &out);
  }
  out.append("]}");
  return out;
}

std::string MetricsToJson(const MetricsRegistry& registry) {
  std::string out;
  out.append("{\"counters\":{");
  bool first = true;
  for (const auto& [name, counter] : registry.counters()) {
    if (!first) {
      out.append(",");
    }
    first = false;
    AppendF(&out, "\"%s\":%" PRIu64, JsonEscape(name).c_str(), counter->value());
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, gauge] : registry.gauges()) {
    if (!first) {
      out.append(",");
    }
    first = false;
    out.append("\"");
    out.append(JsonEscape(name));
    out.append("\":");
    AppendJsonNumber(&out, gauge->value());
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, histogram] : registry.histograms()) {
    if (!first) {
      out.append(",");
    }
    first = false;
    out.append("\"");
    out.append(JsonEscape(name));
    out.append("\":{");
    AppendF(&out, "\"count\":%" PRIu64 ",", histogram->count());
    out.append("\"sum\":");
    AppendJsonNumber(&out, histogram->sum());
    out.append(",\"min\":");
    AppendJsonNumber(&out, histogram->min());
    out.append(",\"max\":");
    AppendJsonNumber(&out, histogram->max());
    out.append(",\"buckets\":[");
    for (size_t i = 0; i < histogram->num_buckets(); ++i) {
      if (i > 0) {
        out.append(",");
      }
      const double bound = histogram->bucket_upper_bound(i);
      out.append("{\"le\":");
      if (std::isinf(bound)) {
        out.append("\"+Inf\"");
      } else {
        AppendJsonNumber(&out, bound);
      }
      AppendF(&out, ",\"count\":%" PRIu64 "}", histogram->bucket_count(i));
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

uint64_t FingerprintBytes(std::string_view bytes) {
  uint64_t hash = 0xCBF29CE484222325ull;  // FNV-1a 64-bit offset basis.
  for (const char c : bytes) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 0x100000001B3ull;
  }
  return hash;
}

uint64_t MetricsFingerprint(const MetricsRegistry& registry) {
  return FingerprintBytes(MetricsToJson(registry));
}

uint64_t TraceFingerprint(const Tracer& tracer) {
  return FingerprintBytes(TraceToChromeJson(tracer));
}

bool WriteStringToFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    TLOG_ERROR("cannot open %s for writing", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    TLOG_ERROR("short write to %s (%zu of %zu bytes)", path.c_str(), written,
               content.size());
    return false;
  }
  return true;
}

}  // namespace totoro
