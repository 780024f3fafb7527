// Shared pieces of the repository benchmark: per-repetition results, host probes
// (wall clock, resident memory), exact order statistics, result fingerprints, and
// per-layer reads of the phase profiler.
//
// A workload is a function that performs one repetition: it builds its world from the
// seed (set-up), runs the timed phase, checks the outputs, and tears the world down.
// main.cc repeats it, so every repetition of one seed must reproduce the
// same virtual results bit for bit; that comparison is the benchmark's determinism gate.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace totoro {
class Profiler;
}  // namespace totoro

namespace perfbench {

struct RepOptions {
  uint64_t seed = 1;
  // Traced repetitions enable the phase profiler, wrap every call the benchmark makes
  // into a module in a ProfileScope, and install the timing decorators (model,
  // combiner). Untraced repetitions run the program exactly as shipped.
  bool traced = false;
  // Reduced sizes for the self-test; the measured workloads never set it.
  bool small = false;
};

// The virtual ([v]) outcome of one repetition. Every field is a pure function of the
// seed, so repetitions are compared with exact equality.
struct VirtualResult {
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double op_virtual_ms_p50 = 0.0;
  double op_virtual_ms_p90 = 0.0;
  double wire_bytes_per_op = 0.0;
  double tta_virtual_s = 0.0;
  uint64_t fingerprint = 0;

  bool operator==(const VirtualResult&) const = default;
};

struct RepResult {
  VirtualResult v;
  // Correctness gate: empty when every output check passed.
  std::string error;
  // Host ([h]) measurements.
  double setup_s = 0.0;
  double timed_s = 0.0;
  // Operations per wall second, one sample per timed window of this repetition.
  std::vector<double> rate_samples;
  // Per-layer metrics of a traced repetition, by benchmark metric name.
  std::map<std::string, double> layers;
};

// Steady-clock seconds since an arbitrary epoch.
double WallSeconds();
// Peak resident set (VmHWM) and current resident set (VmRSS) of this process.
double PeakRssMb();
double CurrentRssBytes();

// Exact nearest-rank quantile, q in (0, 1]. `values` must not be empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// FNV-1a style folding of result fields into a fingerprint.
uint64_t Mix(uint64_t hash, uint64_t value);
uint64_t MixDouble(uint64_t hash, double value);
inline constexpr uint64_t kFingerprintSeed = 0xcbf29ce484222325ull;

// Wall seconds of every profiler phase named `name` whose path starts with
// `under_prefix` ("" = anywhere), summed; `self` subtracts each phase's children.
double PhaseWall(const totoro::Profiler& profiler, const std::string& name,
                 const std::string& under_prefix = "", bool self = false);
double PhaseVirtualMs(const totoro::Profiler& profiler, const std::string& name);
uint64_t PhaseCalls(const totoro::Profiler& profiler, const std::string& name);

// Reads the counters and histograms the program keeps in the thread's metrics
// registry; absent series read 0.
double CounterValue(const std::string& name);
double HistogramQuantile(const std::string& name, double q);
double HistogramMean(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
