// Repository benchmark: the command-line entry point.
//
//   totoro_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-dir <dir>]
//   totoro_perfbench --selftest
//   totoro_perfbench --noise-probe <seconds>
//
// Repeats one workload's repetition (set-up, timed phase, output checks) until
// `--seconds` of wall time have passed, with at least kMinReps repetitions. Every
// repetition of the seed must reproduce the same virtual results and fingerprint; a
// mismatch or a failed output check marks the run incorrect and exits 1.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and traced
// repetitions, prints the per-layer metrics of the traced ones (medians), the tracing
// overhead, and writes the last traced repetition's phase tree with the profiler's
// exporters into --trace-dir.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
//
// --selftest runs every workload at reduced size twice per seed and the overlay
// workload at K=1 and K=2, and exits 1 unless the virtual results agree exactly.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"
#include "src/common/rng.h"
#include "src/fl/compute_pool.h"
#include "src/ml/kernels.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profiler.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 64;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by --trace 0 for every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"op_virtual_ms_p50", "ms"},
    {"op_virtual_ms_p90", "ms"},
    {"wire_bytes_per_op", "B"},
    {"tta_virtual_s", "s"},
};

// Every per-layer metric, printed by --trace 1 for every workload; a layer that does
// no work on a workload reads 0.
constexpr MetricDef kPerLayer[] = {
    {"dht.build_s", "s"},
    {"dht.bytes_per_host", "B"},
    {"dht.hops_mean", "hops"},
    {"dht.hops_p90", "hops"},
    {"dht.joins", "count"},
    {"dht.leaves", "count"},
    {"sim.run_s", "s"},
    {"sim.self_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.events_cancelled", "count"},
    {"net.msgs", "count"},
    {"net.bytes", "B"},
    {"net.drops", "count"},
    {"pubsub.build_s", "s"},
    {"pubsub.subscribe_s", "s"},
    {"pubsub.subscribe_virtual_ms", "ms"},
    {"pubsub.broadcast_ms_p50", "ms"},
    {"pubsub.aggregate_ms_p50", "ms"},
    {"pubsub.join_retries", "count"},
    {"pubsub.updates_dropped", "count"},
    {"ml.train_s", "s"},
    {"ml.train_calls", "count"},
    {"ml.eval_s", "s"},
    {"ml.eval_calls", "count"},
    {"fl.aggregate_s", "s"},
    {"fl.aggregate_calls", "count"},
    {"fl.train_tasks", "count"},
    {"fl.rounds_partial", "count"},
    {"core.plan_s", "s"},
    {"core.disseminate_s", "s"},
    {"core.train_s", "s"},
    {"core.aggregate_s", "s"},
    {"core.evaluate_s", "s"},
    {"obs.unattributed_s", "s"},
    {"obs.trace_overhead", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
  bool selftest = false;
  double noise_probe_s = 0.0;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: totoro_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n"
               "       totoro_perfbench --selftest\n"
               "       totoro_perfbench --noise-probe <seconds>\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(std::string("missing value for ") + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--noise-probe") {
      args.noise_probe_s = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.noise_probe_s > 0.0)) {
        Usage("--noise-probe takes a positive number of seconds");
      }
    } else if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) {
        Usage("--seed takes a non-negative integer");
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Usage(std::string("unknown flag ") + flag);
    }
  }
  if (!args.selftest && args.noise_probe_s == 0.0 && !have_workload) {
    Usage("--workload is required");
  }
  return args;
}

// The workload is defined by the seed alone: refuse any TOTORO_* override, which
// could change the engine, thread counts, kernels, profiling or logging.
void RefuseKnobOverrides() {
  bool found = false;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TOTORO_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      const int len = eq == nullptr ? static_cast<int>(std::strlen(*e))
                                    : static_cast<int>(eq - *e);
      std::fprintf(stderr, "error: %.*s is set; unset every TOTORO_* knob to benchmark\n",
                   len, *e);
      found = true;
    }
  }
  if (found) {
    std::exit(2);
  }
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintEnvironment(const Args& args, const Workload& w) {
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"nproc\": %u, "
      "\"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", \"simd\": \"%s\", "
      "\"sim_shards\": %zu, \"compute_threads\": %zu}}\n",
      w.name, static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), totoro::JsonEscape(CpuModel()).c_str(),
      totoro::JsonEscape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      totoro::SimdLevelName(totoro::ActiveSimdLevel()), w.sim_shards,
      totoro::ComputePool::ThreadsFromEnv());
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

RepResult RunRep(const Workload& w, const RepOptions& options) {
  totoro::GlobalMetrics().ResetValues();
  totoro::Profiler& profiler = totoro::GlobalProfiler();
  profiler.Reset();
  profiler.SetEnabled(options.traced);
  RepResult r = w.run(options);
  profiler.SetEnabled(false);
  return r;
}

std::vector<double> RateSamples(const std::vector<RepResult>& reps) {
  std::vector<double> rates;
  for (const RepResult& r : reps) {
    rates.insert(rates.end(), r.rate_samples.begin(), r.rate_samples.end());
  }
  return rates;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* separator = "";
  for (const auto& [def, v] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator, def.name, v,
                def.unit);
    separator = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int RunBenchmark(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    Usage(std::string("unknown workload ") + args.workload);
  }
  PrintEnvironment(args, *w);
  const double start = WallSeconds();
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  VirtualResult first;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string trace_json;
  std::string phases_json;
  std::string phases_text;
  const size_t min_reps = args.trace ? 2 * kMinReps - 2 : kMinReps;
  for (size_t rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= min_reps && WallSeconds() - start >= args.seconds) {
      break;
    }
    RepOptions options;
    options.seed = args.seed;
    options.traced = args.trace && rep % 2 == 0;
    RepResult r = RunRep(*w, options);
    std::printf(
        "rep %zu%s: setup %.4f s, timed %.4f s, ops %llu, ops/s median %.6g max %.6g%s%s\n",
        rep, options.traced ? " (traced)" : "", r.setup_s, r.timed_s,
        static_cast<unsigned long long>(r.v.ops), Median(r.rate_samples),
        *std::max_element(r.rate_samples.begin(), r.rate_samples.end()),
        r.error.empty() ? "" : ", error: ", r.error.c_str());
    attempted += r.v.attempted;
    failed += r.v.failed;
    if (error.empty() && !r.error.empty()) {
      error = r.error;
    }
    if (rep == 0) {
      first = r.v;
    } else if (error.empty() && !(r.v == first)) {
      error = "repetition " + std::to_string(rep) + " of seed " + std::to_string(args.seed) +
              " did not reproduce the virtual results of the first";
    }
    if (options.traced) {
      // Spans stay in memory until the run ends; only the last traced tree is written.
      const totoro::Profiler& profiler = totoro::GlobalProfiler();
      trace_json = totoro::ProfilerToChromeJson(profiler);
      phases_json = profiler.ToJson();
      phases_text = profiler.ReportText();
    }
    (options.traced ? traced : untraced).push_back(std::move(r));
  }
  const bool correct = error.empty();
  if (!correct) {
    std::printf("INCORRECT: %s\n", error.c_str());
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!args.trace) {
    std::vector<double> setup;
    for (const RepResult& r : untraced) {
      setup.push_back(r.setup_s);
    }
    const double values[] = {Median(setup),
                             Median(RateSamples(untraced)),
                             PeakRssMb(),
                             first.op_virtual_ms_p50,
                             first.op_virtual_ms_p90,
                             first.wire_bytes_per_op,
                             first.tta_virtual_s};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    for (const MetricDef& def : kPerLayer) {
      std::vector<double> values;
      for (const RepResult& r : traced) {
        auto it = r.layers.find(def.name);
        values.push_back(it == r.layers.end() ? 0.0 : it->second);
      }
      double value = Median(values);
      if (std::strcmp(def.name, "obs.trace_overhead") == 0) {
        value = Median(RateSamples(untraced)) / Median(RateSamples(traced)) - 1.0;
      }
      metrics.emplace_back(def, value);
    }
    if (!args.trace_dir.empty()) {
      const std::string base =
          args.trace_dir + "/" + w->name + "-seed" + std::to_string(args.seed);
      totoro::WriteStringToFile(base + ".trace.json", trace_json);
      totoro::WriteStringToFile(base + ".phases.json", phases_json);
    }
    std::printf("phase tree of the last traced repetition:\n%s", phases_text.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// Machine-noise probe: alternates quarter-second slices of a register-only loop and a
// 16 MB random-access loop, then prints each loop's median rate and IQR / median. It
// shows how steady the host is, to read beside the benchmark's own spread.
int RunNoiseProbe(double seconds) {
  constexpr size_t kSlots = (size_t{16} << 20) / sizeof(uint32_t);
  constexpr double kSliceS = 0.25;
  std::vector<uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0u);
  totoro::Rng rng(1);
  // Sattolo's shuffle: one cycle through every slot, so the chase touches all 16 MB.
  for (size_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.NextBelow(i)]);
  }
  std::vector<double> register_rates;
  std::vector<double> memory_rates;
  uint64_t x = 1;
  uint32_t p = 0;
  const double end = WallSeconds() + seconds;
  while (WallSeconds() < end) {
    double t0 = WallSeconds();
    uint64_t steps = 0;
    while (WallSeconds() - t0 < kSliceS) {
      for (int i = 0; i < (1 << 16); ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      steps += 1 << 16;
    }
    register_rates.push_back(static_cast<double>(steps) / (WallSeconds() - t0));
    t0 = WallSeconds();
    steps = 0;
    while (WallSeconds() - t0 < kSliceS) {
      for (int i = 0; i < (1 << 14); ++i) {
        p = next[p];
      }
      steps += 1 << 14;
    }
    memory_rates.push_back(static_cast<double>(steps) / (WallSeconds() - t0));
  }
  for (const auto& [name, rates] : {std::pair{"register loop", &register_rates},
                                    std::pair{"16 MB random access", &memory_rates}}) {
    const double median = Median(*rates);
    std::printf("%s: median %.4g steps/s, IQR/median %.4f, min %.4g, max %.4g (%zu slices)\n",
                name, median, (Quantile(*rates, 0.75) - Quantile(*rates, 0.25)) / median,
                *std::min_element(rates->begin(), rates->end()),
                *std::max_element(rates->begin(), rates->end()), rates->size());
  }
  std::printf("checksum %llu\n", static_cast<unsigned long long>(x + p));
  return 0;
}

int RunSelfTest() {
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  for (const Workload& w : AllWorkloads()) {
    for (uint64_t seed : {1ull, 2ull}) {
      RepOptions options;
      options.seed = seed;
      options.small = true;
      const RepResult a = RunRep(w, options);
      options.traced = true;
      const RepResult b = RunRep(w, options);
      const std::string label = std::string(w.name) + " seed " + std::to_string(seed);
      check(a.error.empty() && b.error.empty(), label + " passes its output checks");
      check(a.v == b.v, label + " repeats bit-exactly, traced or not");
      if (w.sim_shards > 1) {
        options.traced = false;
        const RepResult k1 = RunOverlayRoute(options, 1);
        check(a.v == k1.v, label + " equals the K=1 engine's results");
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = {
      {"overlay_route", 1, [](const RepOptions& o) { return RunOverlayRoute(o, 1); }},
      {"overlay_route_k2", 2, [](const RepOptions& o) { return RunOverlayRoute(o, 2); }},
      {"fl_multiapp", 1, RunFlMultiapp},
      {"fl_churn", 1, RunFlChurn},
  };
  return workloads;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RefuseKnobOverrides();
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.noise_probe_s > 0.0) {
    return perfbench::RunNoiseProbe(args.noise_probe_s);
  }
  return args.selftest ? perfbench::RunSelfTest() : perfbench::RunBenchmark(args);
}
