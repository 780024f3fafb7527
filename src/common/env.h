// The single sanctioned environment-variable access point (totoro_lint rule R1).
//
// Environment reads are a nondeterminism source: two runs of the same binary can
// diverge on nothing but an ambient variable, which breaks the bit-identical-replay
// guarantee the simulator and benches rely on. Concentrating every read here keeps the
// surface auditable — all knobs are named in one place, every caller goes through a
// typed parse-with-default helper, and direct std::getenv() anywhere else in the tree
// is a lint error.
//
// Known knobs:
//   TOTORO_LOG_LEVEL       debug/info/warn/error/off or 0-4 (src/common/logging.cc)
//   TOTORO_COMPUTE_THREADS FL compute threads N, >= 1, counting the simulator thread
//                          (N - 1 workers); default = the CPUs this process may run
//                          on, and 1 runs inline     (src/fl/compute_pool.cc)
//   TOTORO_BENCH_THREADS   bench trial parallelism, >= 1; default = the CPUs this
//                          process may run on          (bench/parallel_runner.cc)
//   TOTORO_PROFILE         >= 1 enables the phase profiler  (src/obs/profiler.cc)
//   TOTORO_BENCH_REPORT_DIR  BENCH_*.json output dir, default "."; "off" disables
//                                                           (src/obs/bench_report.cc)
//   TOTORO_SIMD            kernel dispatch level: scalar/avx2; default = avx2 when
//                          the CPU has it, else scalar, and avx2 on a CPU without it
//                          clamps to scalar; any other value CHECK-fails. Both
//                          levels are bit-identical, so this only affects speed.
//                                                           (src/ml/kernels.cc)
//   TOTORO_SIM_SHARDS      simulator shard count K for MakeSimulatorFromEnv, from 1
//                          to Simulator::kMaxShards = 256 (a larger K CHECK-fails);
//                          1 (default) runs inline on the calling thread, K > 1 on
//                          K shards behind the conservative barrier: the calling
//                          thread runs shard 0 and K - 1 workers the rest. All K
//                          produce bit-identical exports (src/sim/simulator.cc)
//
// A count knob that is set but is not an integer, or is below its minimum, CHECK-fails
// with the knob's name and value rather than silently falling back to its default.
#ifndef SRC_COMMON_ENV_H_
#define SRC_COMMON_ENV_H_

#include <cstddef>
#include <string>

namespace totoro {

// Raw read. Returns nullptr when unset; never returns an empty string as "set"
// (an empty value is treated as unset, matching every existing caller).
const char* EnvString(const char* name);

// Integer knob: returns `fallback` when unset. CHECK-fails, naming the knob and its
// value, when it is set but is not a base-10 integer that fits a long (trailing
// garbage included), or is below `min_value`.
long EnvInt64(const char* name, long fallback, long min_value);

// Positive thread/worker-count knob: EnvInt64 with min_value 1, narrowed to size_t.
size_t EnvThreadCount(const char* name, size_t fallback);

// The CPUs this process may run on, at least 1: the affinity mask, which honours
// taskset and cgroup cpusets (std::thread::hardware_concurrency() does not), else
// hardware_concurrency().
size_t AvailableCpus();

}  // namespace totoro

#endif  // SRC_COMMON_ENV_H_
