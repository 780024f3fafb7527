// Scoped hierarchical phase profiler: the one clock that says where a run's wall time
// went.
//
// A phase is a named region of harness or protocol code ("engine_run", "sim_run",
// "aggregate"); entering the same name under the same parent accumulates into one node,
// so a whole bench run reduces to a small tree of phases with per-phase deltas:
//
//   wall_seconds  wall-clock time inside the phase (nondeterministic; never exported to
//                 the metrics registry, only to ReportText/ToJson/Chrome trace)
//   virtual_ms    simulated-time advance inside the phase (deterministic)
//   events        simulator events fired inside the phase (deterministic)
//   calls         times the phase was entered (deterministic)
//
// The virtual clock and event counter are registered by the Simulator constructor,
// exactly like the tracer's clock source; phases that never wrap a Simulator::Run
// simply read zero deltas for both.
//
// The library opens one scope per layer boundary, never on a per-event path:
// `oracle_build` (PastryNetwork::BuildOracle), `forest_build` (Forest's constructor),
// `subscribe_all` (Forest::SubscribeAll), `sim_run` (every Simulator run), the engine's
// `engine_run` / `plan` / `disseminate` / `train` / `aggregate` / `evaluate`, and
// `compute_task` (one per compute-pool task). Callers scope their own loops around
// these (bench::Stack's `add_nodes`); perfbench reserves the names it wraps around
// library calls (`dht_build`, `dht_join`, `dht_handlers`, `pubsub_build`,
// `pubsub_subscribe`, `sim`, `core`, `ml_train`, `ml_eval`, `fl_aggregate`), so no
// library scope repeats one.
//
// Usage:
//   ProfileScope scope("aggregate");   // accumulates into <current>/aggregate
//
// Profiling is off by default and zero-cost when disabled: ProfileScope's constructor
// is one inline enabled-check, identical to the tracer's contract. The TOTORO_PROFILE
// environment variable (any value >= 1) turns it on for the whole process; a bench that
// reports phase walls turns its own thread's profiler on with SetEnabled.
//
// Export paths:
//   PublishToMetrics  folds calls / virtual_ms / events per phase into the metrics
//                     registry as `profile.<path>.*` series (deterministic only, so
//                     fingerprinted exports stay bit-identical)
//   ReportText        human-readable tree with wall-clock
//   ToJson            machine-readable everything (bench reports embed this)
//   ProfilerToChromeJson (export.h)  flame-graph-style Chrome trace
//
// Like the tracer and metrics registry, the profiler is thread-local so parallel bench
// trials never contend or interleave.
#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace totoro {

class MetricsRegistry;

struct PhaseStats {
  uint64_t calls = 0;
  double wall_seconds = 0.0;
  double virtual_ms = 0.0;
  uint64_t events = 0;
};

class Profiler {
 public:
  // One accumulated phase. Children are name-ordered so every walk is deterministic.
  struct PhaseNode {
    std::string name;       // Single path segment, [a-z][a-z0-9_]*.
    size_t parent = 0;      // Index into nodes(); the root is its own parent.
    int depth = 0;          // Root = 0; top-level phases = 1.
    PhaseStats stats;
    std::map<std::string, size_t> children;
  };

  Profiler();

  bool enabled() const { return enabled_; }
  // Enabling mid-run is allowed; already-open scopes entered while disabled stay inert.
  void SetEnabled(bool on) { enabled_ = on; }

  // Registers the virtual clock (the simulator's `now`, virtual ms) and the fired-event
  // counter. The Simulator constructor registers both; deltas read 0 when unset.
  void SetClockSource(const double* now_ms) { clock_ = now_ms; }
  const double* clock_source() const { return clock_; }
  void SetEventCountSource(const uint64_t* events_fired) { events_ = events_fired; }
  const uint64_t* event_count_source() const { return events_; }

  // --- Phase tree access ---
  // nodes()[0] is the synthetic root; its stats stay zero.
  const std::vector<PhaseNode>& nodes() const { return nodes_; }
  // Finds a phase by dotted path ("engine_run.sim_run"); nullptr when absent.
  const PhaseNode* Find(const std::string& path) const;
  // Dotted path of a node index ("" for the root).
  std::string PathOf(size_t index) const;
  size_t open_scopes() const { return stack_.size(); }

  // --- Export ---
  // Folds the deterministic fields of every phase into `registry`:
  //   profile.<path>.calls (counter), profile.<path>.virtual_ms (gauge),
  //   profile.<path>.events (gauge)
  // Wall-clock never reaches the registry, so fingerprinted metric exports stay
  // bit-identical across machines and thread counts.
  void PublishToMetrics(MetricsRegistry* registry) const;
  // Indented tree, one line per phase, wall/virtual/events/calls columns.
  std::string ReportText() const;
  // Machine-readable snapshot: every phase with all four fields.
  std::string ToJson() const;

  // Drops all phases (open scopes must be closed first); keeps enabled state and
  // sources.
  void Reset();

  // Index into nodes() of the innermost open phase; 0 (the root) when none is open.
  size_t current_phase() const { return stack_.empty() ? 0 : stack_.back().node; }

  // Folds `other`'s phase tree into this profiler under the phase `under` (an index
  // into nodes(); 0 is the root), matching phases by path (stats add field-wise).
  // `other` must have no open scopes. Callers merge in a fixed order
  // (shard index, task join order) so double sums stay deterministic. This is how
  // phases recorded on other threads reach the exported tree.
  void MergeFrom(const Profiler& other, size_t under = 0);

 private:
  friend class ProfileScope;

  // Find-or-create the child `name` under `parent` (shared by Enter and MergeFrom).
  size_t ChildNode(size_t parent, const std::string& name);
  void MergeSubtree(const Profiler& other, size_t src, size_t dst);

  struct Frame {
    size_t node = 0;
    double wall_start = 0.0;
    double virtual_start = 0.0;
    uint64_t events_start = 0;
  };

  // Slow paths behind ProfileScope's inline enabled-check.
  void Enter(const char* name);
  void Exit();
  double WallSeconds() const;

  bool enabled_ = false;
  const double* clock_ = nullptr;
  const uint64_t* events_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<PhaseNode> nodes_;
  std::vector<Frame> stack_;
};

// The thread-wide profiler. Enabled at thread startup when TOTORO_PROFILE is set to a
// positive integer; SetEnabled overrides at any time. Inside a ProfileCapture it is the
// capture's target instead.
Profiler& GlobalProfiler();

// Routes this thread's GlobalProfiler() to `target` for the capture's lifetime, so the
// phases code opens inside it land in `target`, not in the thread's tree. A compute
// task records into a profile of its own this way, whichever thread runs it (see
// src/fl/compute_pool.h). A null target captures nothing. Scopes opened before the
// capture keep their profiler.
class ProfileCapture {
 public:
  explicit ProfileCapture(Profiler* target);
  ~ProfileCapture();
  ProfileCapture(const ProfileCapture&) = delete;
  ProfileCapture& operator=(const ProfileCapture&) = delete;

 private:
  Profiler* previous_;
};

// RAII phase scope: accumulates [construction, destruction) into the profiler's
// current-phase child `name`. Inert (one predictable branch) when profiling is off.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    Profiler& profiler = GlobalProfiler();
    if (profiler.enabled()) {
      profiler_ = &profiler;
      profiler.Enter(name);
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;
  ~ProfileScope() {
    if (profiler_ != nullptr) {
      profiler_->Exit();
    }
  }

 private:
  Profiler* profiler_ = nullptr;
};

}  // namespace totoro

#endif  // SRC_OBS_PROFILER_H_
