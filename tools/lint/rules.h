// totoro_lint rule engine.
//
// Rules enforced (see DESIGN.md "Static analysis & determinism rules"):
//   R1  No nondeterminism sources in the deterministic-simulation directories
//       (src/{sim,dht,pubsub,core,faultsim,bandit}): std::random_device, rand()/srand(),
//       time()/clock()/gettimeofday(), and the <chrono> wall clocks
//       (system_clock/steady_clock/high_resolution_clock). getenv() is checked across
//       the whole tree and is sanctioned only inside src/common/env.*.
//   R2  No range-for or iterator (`.begin()`) loops over std::unordered_map /
//       std::unordered_set in the deterministic directories, unless the loop line (or
//       the line above it) carries `// LINT: order-independent` with a justification.
//       Member containers declared in headers are resolved through `#include "..."`
//       tracking, so a loop in a .cc over a member declared in its .h is still caught.
//   R3  No pointer-keyed std::map/std::set, and no relational comparison between two
//       raw-pointer locals, in the deterministic directories (pointer order is
//       allocator-dependent and must never feed a scheduling decision).
//   R4  Every obs metric name literal passed to GetCounter/GetGauge/GetHistogram under
//       src/ matches the `layer.noun_verb` convention (lowercase dot-separated
//       [a-z][a-z0-9_]* segments, >= 2 segments; a trailing '.' marks a composed
//       prefix) and each full name is registered at exactly one site with one kind.
//   R5  Every bench binary (bench/bench_*.cc) emits a machine-readable BenchReport:
//       the file must reference the `BenchReport` identifier (src/obs/bench_report.h).
//       ASCII-only benches are invisible to tools/benchdiff regression gating.
//   R6  Every committed baseline bench/baselines/BENCH_<name>.json must have its
//       producing bench binary `bench_<name>` referenced inside the bench-telemetry
//       job of .github/workflows/ci.yml. A baseline CI never regenerates either goes
//       stale forever or hard-fails benchdiff with "current run produced no ..." —
//       both mean the gate is not gating.
//   R7  No mutable `static` / `thread_local` state in the shard-deterministic
//       directories (src/{sim,core,pubsub,dht,fl,obs}): a static shared across
//       worker threads races, and a static thread_local silently forks per-shard
//       copies whose values depend on the shard layout (the PR 9 bug class).
//       const/constexpr statics and function declarations are fine; so is the one
//       documented idiom — `static thread_local Counter* c = &GlobalMetrics().Get…`
//       caches re-resolved per thread against that thread's own sink. Anything else
//       needs `// LINT: thread-confined <why>` or an allowlist entry.
//   R8  Host-protocol entry points (methods named `Start…` in src/{dht,pubsub})
//       that schedule timer/self-rescheduling events (`Schedule`/`ScheduleAt`) must
//       wrap the scheduling in `RunAsHost`, so keep-alive/maintenance loops join the
//       host's canonical event stream instead of the control stream (where their
//       keys — and therefore the whole replay — would depend on call order from the
//       harness thread). Escape: `// LINT: host-context <why>`.
//   R9  Every use of a `std::atomic` member under src/ must be an explicit member
//       call (`load/store/fetch_*/exchange/compare_exchange…`): implicit-conversion
//       reads and `=` stores hide a seq_cst access that both obscures the intended
//       ordering and silently mixes with relaxed accesses elsewhere. Additionally,
//       one member must not mix relaxed with (explicit or implied) seq_cst orders
//       across its call sites. Escape: `// LINT: atomic-access-ok <why>`.
//   R10 No argument list under src/, bench/, tools/ or examples/ holds two or more
//       Rng draw calls (`Next`, `NextBelow`, `UniformInt`, `NextDouble`, `Uniform`,
//       `Bernoulli`, `Gaussian`, `Exponential`, `Geometric`): argument evaluation
//       order is unspecified (GCC right to left, clang left to right), so such a call
//       draws a compiler-dependent world. Draw into named locals, in order, first.
//
// The engine is lexer-level by design: no LLVM/clang dependency, so it builds with the
// project toolchain and runs in a few hundred milliseconds over the whole tree. The
// trade-off is heuristic type resolution; the allowlist (allowlist.h) absorbs audited
// exceptions and must shrink, never grow.
#ifndef TOOLS_LINT_RULES_H_
#define TOOLS_LINT_RULES_H_

#include <string>
#include <vector>

namespace totoro::lint {

struct SourceFile {
  std::string path;     // Repo-relative, forward slashes (e.g. "src/sim/simulator.cc").
  std::string content;  // Full file text.
};

struct Finding {
  std::string rule;    // "R1".."R10".
  std::string file;    // Repo-relative path.
  int line = 0;        // 1-based.
  std::string symbol;  // Offending identifier / metric name; allowlist match key.
  std::string message;
};

struct LintOptions {
  // Directories whose code must be bit-deterministic (R1 clocks/rand, R2, R3).
  std::vector<std::string> determinism_dirs = {"src/sim",      "src/dht",  "src/pubsub",
                                               "src/core",     "src/faultsim",
                                               "src/bandit"};
  // The single sanctioned getenv site; path prefix match (env.h + env.cc).
  std::string env_sanctioned_prefix = "src/common/env.";
  // R4 scans files under this prefix.
  std::string metric_dir = "src/";
  // R5 applies to files matching this path prefix (bench binaries).
  std::string bench_prefix = "bench/bench_";
  // R6 inputs, filled by the driver (not derivable from the lexed source set):
  // committed baseline filenames (e.g. "BENCH_micro.json") and the CI workflow text.
  // An empty workflow text disables R6 (e.g. unit tests exercising other rules).
  std::vector<std::string> baseline_names;
  std::string ci_workflow_text;
  std::string ci_workflow_path = ".github/workflows/ci.yml";
  std::string baselines_dir = "bench/baselines";
  // R7 scans these directories for mutable static / thread_local state. Wider than
  // determinism_dirs: src/fl and src/obs host worker-thread code (compute pool,
  // per-thread sinks) where ambient statics are exactly as dangerous.
  std::vector<std::string> mutable_static_dirs = {"src/sim", "src/core", "src/pubsub",
                                                  "src/dht", "src/fl",   "src/obs"};
  // R8 scans these directories for Start… entry points that self-schedule.
  std::vector<std::string> host_protocol_dirs = {"src/dht", "src/pubsub"};
  // R9 checks atomic-member access discipline in files under this prefix.
  std::string atomic_scope_prefix = "src/";
  // R10 checks argument lists for multiple Rng draws in these directories.
  std::vector<std::string> rng_order_dirs = {"src", "bench", "tools", "examples"};
};

// Runs all rules over `files` (every file is both a lint target and an include-
// resolution source). Findings are ordered by file, then line, then rule.
std::vector<Finding> RunLint(const std::vector<SourceFile>& files,
                             const LintOptions& options);

// One finding per line: "file:line: [rule] message".
std::string FormatFinding(const Finding& f);

}  // namespace totoro::lint

#endif  // TOOLS_LINT_RULES_H_
