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
// inline on the calling thread. K>1 runs the simulation as half-open windows [T, T+L),
// where the lookahead L is the minimum link propagation latency: the calling thread
// (the coordinator) runs shard 0's window inline, as K=1 does, and K-1 worker threads
// run the other shards'. A message emitted inside a window arrives at or after T+L, so
// a cross-shard arrival waits in its sender's outbox and the destination moves it into
// its own queue when the next window opens: no shard ever receives an event in its
// past (conservative, null-message-free PDES).
//
// Determinism contract — a K-shard run is BIT-IDENTICAL to the 1-shard run:
//  - Every event carries a canonical key (origin, per-origin sequence) packed into 64
//    bits. A host's execution stream is a pure function of the event population, so
//    the keys it assigns are too; queues pop in strict (time, key) order.
//  - Trace/span ids draw from the same per-host counters (Tracer::SetIdSource). Host
//    events run with an empty trace-scope stack and a private span sink (a worker's
//    tracer; for shard 0 the calling thread's tracer with its stack and sink swapped
//    out), and each run ends by appending those spans in span-id order. Shard 0
//    records metrics into the calling thread's registry, and worker registries fold
//    into it by name (commutative sums).
//  - Control events run on the calling thread between windows, with every worker
//    waiting, ahead of same-time host events. Setup code acting for a node (Subscribe,
//    StartKeepAlive) wraps the call in RunAsHost(host, fn) so its schedules and ids
//    join the host's stream; a message sent from plain driver code is keyed by the
//    sender's counter.
//
// Supported at any K: fault scripts (FaultInjector derives one Rng per (src, dst,
// send-sequence) from the sender's stream). K>1 CHECK-fails on zero lookahead, on hosts
// added after the first run, and on Network::SetHostBandwidth during a run; K=1 allows
// all three. TotoroEngine runs at K=1 only (its per-app state is not shown to be
// thread-safe). Under TOTORO_PROFILE the workers' phase trees merge into the calling
// thread's in shard order.
//
// Throughput accounting: Run/RunUntil count fired events into the thread's metrics
// registry (`sim.events_fired`; effective cancellations fold into
// `sim.events_cancelled`) and accumulate wall-clock spent inside the event loop, so
// any bench can report simulated events per wall second (EventsPerSecond). Each run is
// also the profiler's `sim_run` phase, and adds its fired events and virtual-clock
// advance to every phase open on the calling thread (Profiler::AddRun); RunUntil's
// final advance to t counts too. Wall-clock values never enter the metrics registry,
// so metric exports stay bit-identical across runs.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <atomic>
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
class MetricsRegistry;
class Profiler;

using HostId = uint32_t;

class Simulator {
 public:
  // The largest shard count K. Each shard is a worker thread, so a mistyped K would
  // otherwise start thousands of threads; no host this runs on has this many cores.
  static constexpr size_t kMaxShards = 256;

  // Registers this simulator's clock as the thread's virtual clock (VirtualClock() in
  // src/common/logging.h, which the logger and the tracer read), and each K>1 worker
  // registers its shard's; the destructor clears it if it is still this one's. K>1
  // starts K-1 worker threads, one per shard but shard 0, which the calling thread
  // runs; K=1 starts none. CHECK-fails unless 1 <= num_shards <= kMaxShards.
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
  // shard), keyed by `src`'s canonical sequence. Arrivals are never cancelled, so no
  // handle is made.
  void ScheduleMessageArrival(HostId src, HostId dst, SimTime at, EventFn&& fn);
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

  // --- K>1 barrier accounting ---
  // A thread waiting at the barrier polls for up to kSpinSeconds of wall time, then
  // parks on a condvar. It spins only when the K threads have a CPU each.
  static constexpr double kSpinSeconds = 200e-6;
  // Totals over every run so far; all zero at K=1. They depend on K, so they never
  // enter the metrics registry, whose exports are the same at every K.
  struct BarrierStats {
    uint64_t windows = 0;               // Windows run.
    uint64_t cross_shard_messages = 0;  // Arrivals sent through an outbox.
    uint64_t parks = 0;  // Waits, by any thread, that outlasted the spin and parked.
    // Coordinator wall with no window open: control events and barrier bookkeeping.
    double serial_s = 0.0;
    // Summed over the K-1 workers: inbox moves and window runs, and the rest of the
    // run-loop wall, spent waiting.
    double worker_busy_s = 0.0;
    double worker_wait_s = 0.0;
  };
  // Call between runs, from the thread that runs them.
  BarrierStats barrier_stats() const;

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
    PendingCrossShard(SimTime time, uint64_t event_key, uint32_t host, EventFn&& event)
        : at(time), key(event_key), exec_host(host), fn(std::move(event)) {}
    SimTime at;
    uint64_t key;
    uint32_t exec_host;
    EventFn fn;
  };

  struct Shard {
    EventQueue queue;
    // K>1 workers only: the worker's clock and execution identity (shard 0 runs on the
    // coordinator with now_ and exec_, as at K=1).
    SimTime now = 0.0;
    ExecContext ctx{kControlExec, 0};
    // The open window's exclusive end and generation, copied in when the window opens,
    // so conservative-bound CHECKs read shard-owned state.
    SimTime window_end = 0.0;
    uint64_t window_gen = 0;
    uint64_t window_fired = 0;     // Events run in the most recent window.
    SimTime window_last_at = 0.0;  // Fire time of the last event in that window.
    // Cross-shard arrivals sent in window g sit in outbox[g & 1][destination]; each
    // destination moves its entries into its queue when window g+1 opens, while the
    // senders fill the other parity. sent_min is the earliest arrival sent in the most
    // recent window, which the coordinator folds into the next window's start.
    std::vector<std::vector<PendingCrossShard>> outbox[2];
    SimTime sent_min = kNever;
    uint64_t cross_shard_sent = 0;
    double busy_s = 0.0;  // Workers: wall from each release to its completion.
    // A worker thread's thread-local observability sinks, published at thread start
    // and only touched cross-thread between windows. Null for shard 0.
    Tracer* tracer = nullptr;
    MetricsRegistry* metrics = nullptr;
    Profiler* profiler = nullptr;
    std::thread thread;
    // Shard 0 only: the host events' trace-scope stack and span sink, swapped into the
    // calling thread's tracer for the duration of each window.
    std::vector<TraceContext> scope;
    std::vector<SpanRecord> spans;
  };

  // Wall-clock seconds since an arbitrary fixed epoch. The single audited wall-time
  // source (lint R1 allows steady_clock in simulator.cc only); it feeds nothing but
  // events/s and barrier accounting, never scheduling.
  static double WallClockSeconds();

  SimTime ThreadNow() const;
  // The calling thread's execution identity: its shard's record on a K>1 worker, the
  // coordinator's exec_ everywhere else (always exec_ at K=1, with no thread-local).
  ExecContext& Ctx();
  bool OnWorker() const;
  // K>1: the shard whose window the calling thread is running (a worker's own, or
  // shard 0 on the coordinator), or null outside windows.
  Shard* WindowShard();
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
  // Runs up to `budget` control events due at exactly `at` (workers waiting).
  size_t RunControlAt(SimTime at, size_t budget);
  // Runs up to `budget` of `shard`'s events with at < end as `ctx`, advancing `*now`
  // and installing each event's host as `tracer`'s id source.
  void RunWindow(Shard& shard, ExecContext& ctx, SimTime* now, Tracer& tracer,
                 SimTime end, size_t budget);
  // Runs shard 0's events with at < end on the calling thread, as `exec_` on `now_`,
  // with the host events' own trace-scope stack and span sink swapped in.
  void RunShardZero(SimTime end, size_t budget);
  // One K>1 window [now_, end): releases the workers, runs shard 0, waits for the rest.
  size_t RunWindows(SimTime end);
  // Opens window `gen` on shard `index`: moves the arrivals other shards sent it in
  // window gen-1 into its queue and starts the other outbox parity.
  void OpenWindow(size_t index, uint64_t gen, SimTime end);
  void WorkerMain(size_t shard_index);
  // Returns once `ready()` holds. Polls it for up to kSpinSeconds when spin_, then
  // parks on `cv`; whoever makes it true calls Wake(cv) after.
  template <typename Ready>
  void Await(CondVar& cv, Ready ready) TOTORO_EXCLUDES(mu_);
  void Wake(CondVar& cv) TOTORO_EXCLUDES(mu_);
  // Appends host-event spans in span-id order and folds worker metrics and profiles
  // into the calling thread's sinks (workers waiting).
  void FoldObservability();
  // Folds queue-side cancellations observed since the last sync into the counter.
  void SyncCancelledCounter();

  const size_t num_shards_;
  SimTime now_ = 0.0;
  uint64_t events_fired_ = 0;
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

  // K>1 window barrier. The coordinator writes window_end_ and stopping_, then opens a
  // window by bumping window_gen_ (release); a worker acquires the new generation,
  // runs its window on shard-owned state and counts itself out of workers_running_
  // (acq_rel), and the coordinator acquires the count reaching zero. A waiting thread
  // polls for up to kSpinSeconds, then parks on its condvar under mu_. It spins only
  // when the K threads have a CPU each (spin_), so an oversubscribed run parks at once.
  bool spin_ = false;
  bool coordinator_in_window_ = false;  // Coordinator-only: shard 0's window is open.
  std::atomic<uint64_t> window_gen_{0};
  std::atomic<size_t> workers_running_{0};
  SimTime window_end_ = 0.0;
  bool stopping_ = false;
  mutable Mutex mu_;
  CondVar cv_workers_;
  CondVar cv_done_;
  size_t workers_ready_ TOTORO_GUARDED_BY(mu_) = 0;  // Startup: sink pointers published.
  uint64_t parks_ TOTORO_GUARDED_BY(mu_) = 0;
  uint64_t windows_ = 0;
  double window_wall_s_ = 0.0;  // Coordinator wall from each release to its barrier.
};

// Builds the simulator selected by TOTORO_SIM_SHARDS (unset = 1): Simulator(K). The
// single place benches and tests consult the knob.
std::unique_ptr<Simulator> MakeSimulatorFromEnv();

}  // namespace totoro

#endif  // SRC_SIM_SIMULATOR_H_
