#include "perfbench/src/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/check.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profiler.h"

namespace perfbench {
namespace {

// Reads a "<key>: <n> kB" line of /proc/self/status, in bytes; 0 when absent.
double ProcStatusBytes(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double bytes = 0.0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      bytes = std::strtod(line + key_len + 1, nullptr) * 1024.0;
      break;
    }
  }
  std::fclose(f);
  return bytes;
}

}  // namespace

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() { return ProcStatusBytes("VmHWM") / (1024.0 * 1024.0); }

double CurrentRssBytes() { return ProcStatusBytes("VmRSS"); }

double Quantile(std::vector<double> values, double q) {
  CHECK(!values.empty());
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t Mix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t MixDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Mix(hash, bits);
}

double PhaseWall(const totoro::Profiler& profiler, const std::string& name,
                 const std::string& under_prefix, bool self) {
  const auto& nodes = profiler.nodes();
  double total = 0.0;
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].name != name) {
      continue;
    }
    if (!under_prefix.empty() && profiler.PathOf(i).rfind(under_prefix + ".", 0) != 0) {
      continue;
    }
    double wall = nodes[i].stats.wall_seconds;
    if (self) {
      for (const auto& [child_name, child] : nodes[i].children) {
        (void)child_name;
        wall -= nodes[child].stats.wall_seconds;
      }
    }
    total += wall;
  }
  return total;
}

double PhaseVirtualMs(const totoro::Profiler& profiler, const std::string& name) {
  double total = 0.0;
  for (const auto& node : profiler.nodes()) {
    if (node.name == name) {
      total += node.stats.virtual_ms;
    }
  }
  return total;
}

uint64_t PhaseCalls(const totoro::Profiler& profiler, const std::string& name) {
  uint64_t total = 0;
  for (const auto& node : profiler.nodes()) {
    if (node.name == name) {
      total += node.stats.calls;
    }
  }
  return total;
}

double CounterValue(const std::string& name) {
  const totoro::Counter* c = totoro::GlobalMetrics().FindCounter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double HistogramQuantile(const std::string& name, double q) {
  const totoro::Histogram* h = totoro::GlobalMetrics().FindHistogram(name);
  return h == nullptr ? 0.0 : h->ApproxQuantile(q);
}

double HistogramMean(const std::string& name) {
  const totoro::Histogram* h = totoro::GlobalMetrics().FindHistogram(name);
  return h == nullptr ? 0.0 : h->mean();
}

}  // namespace perfbench
