// Exporters for traces and metric snapshots.
//
// Two formats:
//  - Chrome trace-event JSON (TraceToChromeJson): load the file in chrome://tracing or
//    https://ui.perfetto.dev. Virtual time is the clock — `ts` is virtual microseconds,
//    `pid` is 0 (one simulated world), `tid` is the HostId, and every event carries
//    trace_id / span_id / parent_span_id args so causal chains survive the export.
//  - JSON metrics snapshot (MetricsToJson): counters, gauges, and full histogram bucket
//    vectors, machine-readable.
//
// Output is deterministic: spans export in record order, metrics in name order.
#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"

namespace totoro {

class Profiler;

std::string TraceToChromeJson(const Tracer& tracer);
// Flame-graph-style view of the profiler's accumulated phase tree: one "X" event per
// phase, children laid out sequentially inside their parent, durations in wall-clock
// microseconds. Loadable in chrome://tracing / Perfetto like TraceToChromeJson output.
std::string ProfilerToChromeJson(const Profiler& profiler);
std::string MetricsToJson(const MetricsRegistry& registry);

// FNV-1a over a byte string: the cheap determinism probe. Two runs (or the same run
// at different TOTORO_COMPUTE_THREADS) are byte-identical iff the fingerprints of
// their exports match; benches print the fingerprint instead of megabytes of JSON.
uint64_t FingerprintBytes(std::string_view bytes);
// Fingerprints of the full JSON metric snapshot / Chrome trace export.
uint64_t MetricsFingerprint(const MetricsRegistry& registry);
uint64_t TraceFingerprint(const Tracer& tracer);

// Writes `content` to `path`; returns false (and logs) on failure.
bool WriteStringToFile(const std::string& path, const std::string& content);

// Escapes a string for embedding in a JSON string literal (quotes not included).
std::string JsonEscape(const std::string& s);

}  // namespace totoro

#endif  // SRC_OBS_EXPORT_H_
