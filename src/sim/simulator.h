// Discrete-event simulator: virtual clock, event scheduling, and the one engine that
// runs every experiment at any shard count K.
//
// The entire repository runs on virtual time. One Simulator drives one experiment;
// every protocol layer schedules callbacks through it and only ever holds a Simulator*.
// Callbacks are EventFns (see event_fn.h): any callable up to EventFn::kInlineSize
// bytes schedules without heap allocation, and move-only captures are allowed.
// (Independent Simulators may run on different THREADS — the parallel bench runner
// does — because the tracer/metrics/log sinks they register with are thread-local.)
//
// Engine. Hosts are split into K contiguous id ranges (shards); each shard owns an
// EventQueue, and events scheduled from outside any host context (harness drivers,
// engine rounds, churn scripts) form a separate control stream. K=1 runs everything
// inline on the calling thread. K>1 gives each shard a worker thread and runs the
// simulation as half-open windows [T, T+L), where the lookahead L is the minimum link
// propagation latency: a message emitted inside a window arrives at or after T+L, so
// the coordinator moves cross-shard arrivals into their destination queues at the
// window barrier and no shard ever receives an event in its past (conservative,
// null-message-free PDES).
//
// Determinism contract — a K-shard run is BIT-IDENTICAL to the 1-shard run:
//  - Every event carries a canonical key (origin, per-origin sequence) packed into 64
//    bits. A host's execution stream is a pure function of the event population, so
//    the keys it assigns are too; queues pop in strict (time, key) order.
//  - Trace/span ids draw from the same per-host counters (Tracer::SetIdSource). Host
//    events run with an empty trace-scope stack and a private span sink (a worker's
//    tracer; at K=1 the calling thread's tracer with its stack and sink swapped out),
//    and each run ends by appending those spans in span-id order. Worker metric
//    registries fold by name (commutative sums).
//  - Control events run on the calling thread with every worker parked, ahead of
//    same-time host events. Setup code acting for a node (Subscribe, StartKeepAlive)
//    wraps the call in RunAsHost(host, fn) so its schedules and ids join the host's
//    stream; a message sent from plain driver code is keyed by the sender's counter.
//
// Supported at any K: fault scripts (FaultInjector derives one Rng per (src, dst,
// send-sequence) from the sender's stream) and periodic sampling. K>1 CHECK-fails on
// zero lookahead, on hosts added after the first run, and on Network::SetHostBandwidth
// during a run; K=1 allows all three. TotoroEngine runs at K=1 only (its per-app state
// is not shown to be thread-safe). TOTORO_PROFILE merges per-shard virtual-ms sums in
// shard order, so profile gauges may differ across K in the last ulp.
//
// Throughput accounting: Run/RunUntil count fired events into the thread's metrics
// registry (`sim.events_fired`; effective cancellations fold into
// `sim.events_cancelled`) and accumulate wall-clock spent inside the event loop, so
// any bench can report simulated events per wall second. The events/sec gauge is
// wall-clock dependent, so it is never written implicitly — implicit writes would
// break bit-identical metric exports across runs. It is written either by an explicit
// PublishThroughputMetrics() call (whole-run average) or, when a bench opts in with
// EnablePeriodicSampling(N), every N fired events (live sliding window), which also
// drives the profiler's sampling hooks (queue depth + registered samplers).
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"

namespace totoro {

class Counter;
class Gauge;
class MetricsRegistry;
class Profiler;

using HostId = uint32_t;

class Simulator {
 public:
  // Registers this simulator's clock as the thread-wide virtual-time source for the
  // tracer, the logger and the profiler; the destructor deregisters it (only if still
  // the active source, so nested/successive simulators behave sanely). K>1 starts one
  // worker thread per shard; K=1 starts none.
  explicit Simulator(size_t num_shards = 1);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // The executing context's clock: a worker's shard clock inside a K>1 window, the
  // run clock otherwise.
  SimTime Now() const { return num_shards_ == 1 ? now_ : ThreadNow(); }

  // Schedules `fn` to run `delay` virtual ms from now. delay must be >= 0.
  EventHandle Schedule(SimTime delay, EventFn fn);
  EventHandle ScheduleAt(SimTime at, EventFn fn);

  // Schedules a completion-stamp rejoin: an event whose callback is allowed to BLOCK
  // the wall clock waiting for work running off the simulator thread (e.g. a
  // ComputePool ticket) before folding the result into the event stream. Virtual-time
  // semantics are exactly Schedule(); the separate entry point documents the contract
  // and keeps a deterministic count so tests can assert the offload actually engaged.
  // The rejoin's position in the queue — and hence everything downstream — must not
  // depend on the off-thread result, only on `delay` and the call site's order.
  EventHandle ScheduleRejoin(SimTime delay, EventFn fn);
  uint64_t rejoins_scheduled() const { return rejoins_scheduled_; }

  // Runs events until the queues drain or `max_events` fire. Returns events fired.
  // K>1 treats `max_events` as a window-granular bound.
  size_t Run(size_t max_events = SIZE_MAX);

  // Runs events with firing time <= t, then advances the clock to exactly t.
  size_t RunUntil(SimTime t);
  size_t RunFor(SimTime duration) { return RunUntil(Now() + duration); }

  bool Idle() const;
  size_t PendingEvents() const;
  // Pre-sizes the event queues for `n` concurrently pending events.
  void ReserveEvents(size_t n);

  size_t num_shards() const { return num_shards_; }
  // True while Run/RunUntil is executing events.
  bool running() const { return running_; }
  // Runs `fn` immediately with `host` established as the executing identity, so
  // schedules and sends issued inside join the host's canonical stream. Harness code
  // wraps per-node setup calls (Subscribe, StartKeepAlive, ...) in this.
  void RunAsHost(HostId host, const std::function<void()>& fn);
  // Schedules a message-arrival event that executes as `dst` (possibly on another
  // shard), keyed by `src`'s canonical sequence.
  EventHandle ScheduleMessageArrival(HostId src, HostId dst, SimTime at, EventFn fn);
  // Host-registration hook (Network::AddHost calls it). K>1 freezes the host -> shard
  // partition at the first run and CHECK-fails on later hosts.
  void OnHostAdded(HostId id);
  // Conservative-barrier lookahead (min link propagation latency, virtual ms). K>1
  // requires it to be positive; harnesses call it unconditionally after wiring the
  // network.
  void SetLookaheadMs(double ms);

  // --- Throughput introspection ---
  uint64_t events_fired() const { return events_fired_; }
  uint64_t events_cancelled() const;
  // Wall-clock seconds spent inside Run/RunUntil event loops.
  double run_wall_seconds() const { return run_wall_seconds_; }
  // Fired events per wall-clock second (0 before any event ran).
  double EventsPerSecond() const;
  // Writes the `sim.events_per_sec` gauge (whole-run average) into the thread's
  // metrics registry. Wall-clock values are not deterministic, so this never happens
  // implicitly — only here or via the opt-in periodic sampler below.
  void PublishThroughputMetrics();

  // --- Periodic in-run sampling (opt-in; default off) ---
  // Every `every_events` fired events the loop updates `sim.events_per_sec` with the
  // rate over the window since the previous sample and drives the profiler's sampling
  // hooks (event-queue depth as `sim_queue_depth`, plus all registered samplers).
  // 0 disables. Opting in makes the metrics registry wall-clock dependent — scale
  // benches that fingerprint metrics must exclude the gauge from their probe. K=1
  // samples exactly every N events; K>1 samples at window barriers with every worker
  // parked, so its sample COUNT depends on K (the event stream does not).
  void EnablePeriodicSampling(uint64_t every_events) { sample_every_ = every_events; }
  uint64_t sample_every() const { return sample_every_; }
  // Rate over the most recent completed sampling window (0 before the first sample).
  double live_events_per_sec() const { return live_events_per_sec_; }

 private:
  static constexpr uint32_t kControlExec = UINT32_MAX;
  static constexpr int kKeyOriginShift = 28;

  // Who is executing: the host whose canonical stream new events and ids join, or
  // kControlExec for driver code and control events.
  struct ExecContext {
    uint32_t host;
    uint32_t shard;
  };

  struct PendingCrossShard {
    SimTime at;
    uint64_t key;
    uint32_t exec_host;
    EventFn fn;
  };

  struct Shard {
    EventQueue queue;
    // K>1 only: the worker's clock and execution identity.
    SimTime now = 0.0;
    ExecContext ctx{kControlExec, 0};
    // Worker-owned copy of the current window's exclusive end, taken from window_end_
    // under mu_ before the window opens; lets worker-side conservative-bound CHECKs
    // read it without touching the guarded coordinator field mid-window.
    SimTime window_end = 0.0;
    uint64_t window_fired = 0;     // Events run in the most recent window.
    SimTime window_last_at = 0.0;  // Fire time of the last event in that window.
    uint64_t rejoins = 0;          // Folded into rejoins_scheduled_ at run end.
    // One outbox per destination shard; drained by the coordinator at barriers.
    std::vector<std::vector<PendingCrossShard>> outbox;
    // The worker thread's thread-local observability sinks, published at thread start
    // and only touched cross-thread while the worker is parked.
    Tracer* tracer = nullptr;
    MetricsRegistry* metrics = nullptr;
    Profiler* profiler = nullptr;
    std::thread thread;
    // K=1 only: the host events' trace-scope stack and span sink, swapped into the
    // calling thread's tracer for the duration of each window.
    std::vector<TraceContext> scope;
    std::vector<SpanRecord> spans;
  };

  // Wall-clock seconds since an arbitrary fixed epoch. The single audited wall-time
  // source (lint R1 allows steady_clock in simulator.cc only); it feeds nothing but
  // events/s accounting, never scheduling.
  static double WallClockSeconds();

  SimTime ThreadNow() const;
  // The calling thread's execution identity: its shard's record on a K>1 worker, the
  // coordinator's exec_ everywhere else (always exec_ at K=1, with no thread-local).
  ExecContext& Ctx();
  bool OnWorker() const;
  size_t ShardIndex(HostId host) const { return num_shards_ == 1 ? 0 : shard_of_[host]; }

  // Canonical key allocation: (origin + 2) << kKeyOriginShift | per-origin sequence.
  // Origin 0's range is reserved for the control stream (base 1 << shift); sequential
  // tracer ids stay below every base, so nothing collides.
  uint64_t NextHostKey(HostId origin);
  uint64_t NextControlKey();
  static uint64_t HostKeyBase(HostId origin) {
    return (static_cast<uint64_t>(origin) + 2) << kKeyOriginShift;
  }

  // K>1: freezes the host -> shard partition (contiguous ranges) on first use.
  void SealPartition();
  // The loop shared by Run/RunUntil: executes every event with at < end_exclusive.
  size_t RunLoop(size_t max_events, SimTime end_exclusive);
  // Runs up to `budget` control events due at exactly `at` (workers parked).
  size_t RunControlAt(SimTime at, size_t budget);
  // Runs up to `budget` of `shard`'s events with at < end as `ctx`, advancing `*now`
  // and installing each event's host as `tracer`'s id source.
  void RunWindow(Shard& shard, ExecContext& ctx, SimTime* now, Tracer& tracer,
                 SimTime end, size_t budget);
  // One K>1 window: releases every worker to run [now_, end) and waits at the barrier.
  size_t RunWorkerWindows(SimTime end);
  void WorkerMain(size_t shard_index);
  // Moves every outbox entry into its destination shard's queue (workers parked).
  void DrainOutboxes();
  // Appends host-event spans in span-id order and folds worker metrics, profiles and
  // rejoin counts into the calling thread's sinks (workers parked).
  void FoldObservability();
  // Folds queue-side cancellations observed since the last sync into the counter.
  void SyncCancelledCounter();

  // The single registration site for the `sim.events_per_sec` gauge.
  Gauge& ThroughputGauge();
  // Advances the periodic-sampling countdown by `fired_delta` events and, when the
  // threshold is crossed, closes the window at (`total_fired`, `wall_now`) recording
  // the pending-event depth as `sim_queue_depth`. A crossing samples once and carries
  // the remainder, so a coarse K>1 window never bursts samples.
  void AccumulatePeriodicSample(uint64_t fired_delta, uint64_t total_fired,
                                double wall_now);

  const size_t num_shards_;
  SimTime now_ = 0.0;
  uint64_t events_fired_ = 0;
  uint64_t rejoins_scheduled_ = 0;
  uint64_t cancelled_synced_ = 0;
  double run_wall_seconds_ = 0.0;
  bool running_ = false;
  Counter* fired_counter_ = nullptr;  // Cached thread-local registry series.
  Counter* cancelled_counter_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;
  EventQueue control_;              // Driver/harness events; run on the calling thread.
  uint64_t control_ops_ = 0;        // Control-stream key sequence.
  std::vector<uint64_t> ops_;       // Per-host canonical sequence.
  std::vector<uint32_t> shard_of_;  // K>1: host -> shard (sized at seal).
  bool sealed_ = false;
  double lookahead_ms_ = 0.0;
  ExecContext exec_{kControlExec, 0};

  uint64_t sample_every_ = 0;  // 0 = periodic sampling off.
  uint64_t events_since_sample_ = 0;
  uint64_t window_start_fired_ = 0;
  double window_start_wall_ = 0.0;
  double live_events_per_sec_ = 0.0;
  Gauge* throughput_gauge_ = nullptr;  // Lazily cached by ThroughputGauge().

  // K>1 window barrier. The coordinator publishes window_end_ and a generation bump
  // under mu_; workers copy window_end_ out under mu_, run their window lock-free on
  // shard-owned state, and report back under mu_.
  Mutex mu_;
  CondVar cv_workers_;
  CondVar cv_done_;
  uint64_t window_gen_ TOTORO_GUARDED_BY(mu_) = 0;
  size_t workers_ready_ TOTORO_GUARDED_BY(mu_) = 0;  // Startup: sink pointers published.
  size_t workers_running_ TOTORO_GUARDED_BY(mu_) = 0;
  SimTime window_end_ TOTORO_GUARDED_BY(mu_) = 0.0;
  bool stopping_ TOTORO_GUARDED_BY(mu_) = false;
};

// Builds the simulator selected by TOTORO_SIM_SHARDS (unset = 1): Simulator(K). The
// single place benches and tests consult the knob.
std::unique_ptr<Simulator> MakeSimulatorFromEnv();

}  // namespace totoro

#endif  // SRC_SIM_SIMULATOR_H_
