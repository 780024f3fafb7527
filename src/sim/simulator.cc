#include "src/sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profiler.h"

namespace totoro {

namespace {

// Each origin owns 1 << 28 keys; overflowing would collide with the next origin's range
// and silently break the canonical order, so it is always CHECKed.
constexpr uint64_t kMaxOpsPerOrigin = uint64_t{1} << 28;

// The K>1 worker running on this thread, if any; set once at worker start. Only K>1
// simulators consult it, so a K=1 run never touches thread-local state per event.
struct WorkerIdentity {
  const Simulator* sim = nullptr;
  size_t shard = 0;
};
// LINT: thread-confined a worker's identity is by design one per thread
thread_local WorkerIdentity tls_worker;

// One spin-wait iteration's pause: frees the core's pipeline (and its sibling
// hyperthread) while a waiter polls.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

std::unique_ptr<Simulator> MakeSimulatorFromEnv() {
  return std::make_unique<Simulator>(EnvThreadCount("TOTORO_SIM_SHARDS", 1));
}

double Simulator::WallClockSeconds() {
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

Simulator::Simulator(size_t num_shards) : num_shards_(num_shards) {
  CHECK_GE(num_shards, size_t{1});
  if (num_shards > kMaxShards) {
    const std::string message = "Simulator: " + std::to_string(num_shards) +
                                " shards exceed kMaxShards = " + std::to_string(kMaxShards);
    CheckFailed(__FILE__, __LINE__, message.c_str());
  }
  GlobalTracer().SetClockSource(&now_);
  SetLogTimeSource(&now_);
  GlobalProfiler().SetClockSource(&now_);
  GlobalProfiler().SetEventCountSource(&events_fired_);
  fired_counter_ = &GlobalMetrics().GetCounter("sim.events_fired");
  cancelled_counter_ = &GlobalMetrics().GetCounter("sim.events_cancelled");
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (num_shards == 1) {
    return;
  }
  spin_ = num_shards <= AvailableCpus();
  for (size_t i = 0; i < num_shards; ++i) {
    shards_[i]->outbox[0].resize(num_shards);
    shards_[i]->outbox[1].resize(num_shards);
  }
  for (size_t i = 1; i < num_shards; ++i) {
    shards_[i]->thread = std::thread(&Simulator::WorkerMain, this, i);
  }
  // Wait until every worker has published its thread-local sink pointers, so folds and
  // flag propagation never read a null Shard::tracer.
  MutexLock lock(&mu_);
  while (workers_ready_ != num_shards - 1) {
    cv_done_.Wait(mu_);
  }
}

Simulator::~Simulator() {
  SyncCancelledCounter();
  if (num_shards_ > 1) {
    stopping_ = true;
    window_gen_.fetch_add(1, std::memory_order_release);
    Wake(cv_workers_);
    for (size_t i = 1; i < num_shards_; ++i) {
      shards_[i]->thread.join();
    }
  }
  if (GlobalTracer().clock_source() == &now_) {
    GlobalTracer().SetClockSource(nullptr);
  }
  if (GetLogTimeSource() == &now_) {
    SetLogTimeSource(nullptr);
  }
  if (GlobalProfiler().clock_source() == &now_) {
    GlobalProfiler().SetClockSource(nullptr);
  }
  if (GlobalProfiler().event_count_source() == &events_fired_) {
    GlobalProfiler().SetEventCountSource(nullptr);
  }
}

bool Simulator::OnWorker() const { return num_shards_ > 1 && tls_worker.sim == this; }

SimTime Simulator::ThreadNow() const {
  return OnWorker() ? shards_[tls_worker.shard]->now : now_;
}

Simulator::ExecContext& Simulator::Ctx() {
  return OnWorker() ? shards_[tls_worker.shard]->ctx : exec_;
}

Simulator::Shard* Simulator::WindowShard() {
  if (OnWorker()) {
    return shards_[tls_worker.shard].get();
  }
  return coordinator_in_window_ ? shards_[0].get() : nullptr;
}

uint64_t Simulator::NextHostKey(HostId origin) {
  CHECK_LT(ops_[origin], kMaxOpsPerOrigin);
  return HostKeyBase(origin) + ops_[origin]++;
}

uint64_t Simulator::NextControlKey() {
  CHECK_LT(control_ops_, kMaxOpsPerOrigin);
  return (uint64_t{1} << kKeyOriginShift) + control_ops_++;
}

void Simulator::OnHostAdded(HostId id) {
  if (num_shards_ > 1 && sealed_) {
    CheckFailed(__FILE__, __LINE__,
                "host added after the first run: K>1 freezes the host -> shard partition "
                "at the first run, so add every host before it (K=1 has no such limit)");
  }
  if (id < ops_.size()) {
    return;
  }
  const uint64_t* before = ops_.data();
  ops_.resize(static_cast<size_t>(id) + 1, 0);
  if (ops_.data() != before && exec_.host != kControlExec) {
    // A K=1 host event (or RunAsHost) added the host: the tracer's id counter points
    // into the old storage, so re-point it.
    GlobalTracer().SetIdSource(HostKeyBase(exec_.host), &ops_[exec_.host]);
  }
}

void Simulator::SealPartition() {
  if (sealed_ || num_shards_ == 1) {
    return;
  }
  sealed_ = true;
  const uint64_t n = ops_.size();
  shard_of_.resize(n);
  for (uint64_t h = 0; h < n; ++h) {
    // Contiguous ranges: shard workers sweep adjacent host state, and the split
    // depends only on (num_hosts, K) — never on insertion order.
    shard_of_[h] = static_cast<uint32_t>(h * num_shards_ / n);
  }
}

void Simulator::SetLookaheadMs(double ms) {
  CHECK_GE(ms, 0.0);
  lookahead_ms_ = ms;
}

EventHandle Simulator::Schedule(SimTime delay, EventFn fn) {
  CHECK_GE(delay, 0.0);
  return ScheduleAt(Now() + delay, std::move(fn));
}

EventHandle Simulator::ScheduleAt(SimTime at, EventFn fn) {
  CHECK_GE(at, Now());
  const ExecContext& ctx = Ctx();
  if (ctx.host != kControlExec) {
    // Acting as a host (host event or RunAsHost): the event joins the host's canonical
    // stream on its own shard.
    return shards_[ctx.shard]->queue.Push(at, NextHostKey(ctx.host), ctx.host,
                                          std::move(fn));
  }
  return control_.Push(at, NextControlKey(), kControlExec, std::move(fn));
}

void Simulator::ScheduleMessageArrival(HostId src, HostId dst, SimTime at, EventFn&& fn) {
  CHECK_LT(dst, ops_.size());
  const uint64_t key = NextHostKey(src);
  if (num_shards_ == 1) {
    shards_[0]->queue.Post(at, key, dst, std::move(fn));
    return;
  }
  SealPartition();
  const size_t dst_shard = shard_of_[dst];
  Shard* from = WindowShard();
  if (from == nullptr || from == shards_[dst_shard].get()) {
    // Same shard, or the coordinator between windows with every worker waiting
    // (control events and plain driver code): push directly.
    shards_[dst_shard]->queue.Post(at, key, dst, std::move(fn));
    return;
  }
  // Cross-shard inside a window: the src's counter is only safe because the send runs
  // in src's execution context, and the arrival can't land inside the open window
  // because propagation >= lookahead. The destination takes it when the next window
  // opens.
  CHECK_EQ(Ctx().host, src);
  CHECK_GE(at, from->window_end);
  from->outbox[from->window_gen & 1][dst_shard].emplace_back(at, key, dst, std::move(fn));
  from->sent_min = std::min(from->sent_min, at);
  ++from->cross_shard_sent;
}

void Simulator::RunAsHost(HostId host, const std::function<void()>& fn) {
  SealPartition();
  CHECK_LT(host, ops_.size());
  ExecContext& ctx = Ctx();
  // A window's thread may only assume hosts of its own shard, where single-threaded
  // shard execution makes the identity swap safe (node methods self-wrap, so calls
  // from inside a host event re-enter here).
  CHECK(WindowShard() == nullptr || ShardIndex(host) == ctx.shard);
  const ExecContext saved = ctx;
  ctx = ExecContext{host, static_cast<uint32_t>(ShardIndex(host))};
  Tracer& tracer = GlobalTracer();
  tracer.SetIdSource(HostKeyBase(host), &ops_[host]);
  fn();
  ctx = saved;
  if (saved.host != kControlExec) {
    tracer.SetIdSource(HostKeyBase(saved.host), &ops_[saved.host]);
  } else {
    tracer.ClearIdSource();
  }
}

size_t Simulator::Run(size_t max_events) { return RunLoop(max_events, kNever); }

size_t Simulator::RunUntil(SimTime t) {
  CHECK_GE(t, now_);
  // Events at exactly t must run: the exclusive bound is the next representable time.
  const size_t fired = RunLoop(SIZE_MAX, std::nextafter(t, kNever));
  now_ = t;
  return fired;
}

size_t Simulator::RunLoop(size_t max_events, SimTime end_exclusive) {
  // Runs start from plain driver code: not from an event, not inside RunAsHost.
  CHECK(exec_.host == kControlExec && !running_);
  SealPartition();
  if (num_shards_ > 1) {
    // Zero lookahead would let a window-open shard receive a same-window arrival,
    // violating the conservative bound. Call SetLookaheadMs (min link latency) first.
    CHECK_GT(lookahead_ms_, 0.0);
    // Propagate observability switches to the waiting workers' thread-local sinks.
    for (size_t i = 1; i < num_shards_; ++i) {
      shards_[i]->tracer->SetEnabled(GlobalTracer().enabled());
      shards_[i]->profiler->SetEnabled(GlobalProfiler().enabled());
    }
  }
  // Closes after events_fired_ is folded below, so the scope's event delta is exact.
  ProfileScope profile_scope("sim_run");
  running_ = true;
  const double wall_start = WallClockSeconds();
  size_t fired_total = 0;
  while (fired_total < max_events) {
    // The earliest pending event: queue fronts, plus the arrivals the last window left
    // in outboxes, as each sender reported.
    SimTime t_first = kNever;
    SimTime t = 0.0;
    for (auto& shard : shards_) {
      if (shard->queue.PeekTime(&t)) {
        t_first = std::min(t_first, t);
      }
      t_first = std::min(t_first, shard->sent_min);
    }
    const SimTime control_next = control_.PeekTime(&t) ? t : kNever;
    t_first = std::min(t_first, control_next);
    if (t_first >= end_exclusive) {
      break;
    }
    // K=1 stops exactly at max_events; K>1 is window-granular.
    const size_t budget = max_events - fired_total;
    now_ = t_first;
    size_t fired = 0;
    if (control_next == t_first) {
      // Control-before-host at equal times, with every worker waiting: control events
      // may touch any shard's state (churn scripts, engine rounds) race-free.
      fired = RunControlAt(t_first, budget);
    } else if (num_shards_ == 1) {
      RunShardZero(std::min(control_next, end_exclusive), budget);
      fired = shards_[0]->window_fired;
    } else {
      fired = RunWindows(std::min({t_first + lookahead_ms_, control_next, end_exclusive}));
    }
    fired_total += fired;
  }
  running_ = false;
  run_wall_seconds_ += WallClockSeconds() - wall_start;
  events_fired_ += fired_total;
  fired_counter_->Increment(fired_total);
  SyncCancelledCounter();
  FoldObservability();
  return fired_total;
}

size_t Simulator::RunControlAt(SimTime at, size_t budget) {
  size_t fired = 0;
  SimTime t = at;
  uint32_t exec = 0;
  EventFn fn;
  // A control event may schedule another at the same instant; drain until the stream
  // moves past `at` so same-time control stays ahead of same-time host events.
  const SimTime end = std::nextafter(at, kNever);
  while (fired < budget && control_.PopNext(&t, &exec, &fn, end)) {
    fn();
    ++fired;
  }
  fn.Reset();
  return fired;
}

void Simulator::RunWindow(Shard& shard, ExecContext& ctx, SimTime* now, Tracer& tracer,
                          SimTime end, size_t budget) {
  uint64_t fired = 0;
  SimTime at = *now;
  uint32_t exec = 0;
  EventFn fn;
  while (fired < budget && shard.queue.PopNext(&at, &exec, &fn, end)) {
    *now = at;
    ctx.host = exec;
    // Every id (event key, trace id, span id) the event allocates comes from its
    // host's canonical counter, so downstream behaviour is shard-layout-blind.
    tracer.SetIdSource(HostKeyBase(exec), &ops_[exec]);
    fn();
    ++fired;
  }
  fn.Reset();
  tracer.ClearIdSource();
  ctx.host = kControlExec;
  shard.window_fired = fired;
  shard.window_last_at = at;
}

void Simulator::RunShardZero(SimTime end, size_t budget) {
  Shard& shard = *shards_[0];
  Tracer& tracer = GlobalTracer();
  tracer.SwapScopeAndSpans(&shard.scope, &shard.spans);
  RunWindow(shard, exec_, &now_, tracer, end, budget);
  tracer.SwapScopeAndSpans(&shard.scope, &shard.spans);
}

void Simulator::OpenWindow(size_t index, uint64_t gen, SimTime end) {
  Shard& shard = *shards_[index];
  shard.window_end = end;
  shard.window_gen = gen;
  shard.sent_min = kNever;
  for (auto& src : shards_) {
    std::vector<PendingCrossShard>& inbox = src->outbox[(gen - 1) & 1][index];
    for (PendingCrossShard& p : inbox) {
      shard.queue.Post(p.at, p.key, p.exec_host, std::move(p.fn));
    }
    inbox.clear();
  }
}

size_t Simulator::RunWindows(SimTime end) {
  const double wall_start = WallClockSeconds();
  const uint64_t gen = ++windows_;
  window_end_ = end;
  workers_running_.store(num_shards_ - 1, std::memory_order_relaxed);
  window_gen_.store(gen, std::memory_order_release);
  Wake(cv_workers_);
  coordinator_in_window_ = true;
  OpenWindow(0, gen, end);
  RunShardZero(end, SIZE_MAX);
  coordinator_in_window_ = false;
  Await(cv_done_, [this] { return workers_running_.load(std::memory_order_acquire) == 0; });
  window_wall_s_ += WallClockSeconds() - wall_start;
  size_t fired = 0;
  for (auto& shard : shards_) {
    fired += shard->window_fired;
    if (shard->window_fired != 0) {
      // K-independent: the max fire time over a K-independent event set.
      now_ = std::max(now_, shard->window_last_at);
    }
  }
  return fired;
}

void Simulator::WorkerMain(size_t shard_index) {
  tls_worker = WorkerIdentity{this, shard_index};
  Shard& shard = *shards_[shard_index];
  shard.ctx = ExecContext{kControlExec, static_cast<uint32_t>(shard_index)};
  shard.tracer = &GlobalTracer();
  shard.metrics = &GlobalMetrics();
  shard.profiler = &GlobalProfiler();
  shard.tracer->SetClockSource(&shard.now);
  shard.profiler->SetClockSource(&shard.now);
  SetLogTimeSource(&shard.now);
  {
    MutexLock lock(&mu_);
    ++workers_ready_;
  }
  cv_done_.NotifyAll();
  uint64_t seen_gen = 0;
  while (true) {
    Await(cv_workers_,
          [this, seen_gen] { return window_gen_.load(std::memory_order_acquire) != seen_gen; });
    if (stopping_) {
      return;
    }
    const double wall_start = WallClockSeconds();
    ++seen_gen;  // The coordinator opens one window at a time.
    OpenWindow(shard_index, seen_gen, window_end_);
    RunWindow(shard, shard.ctx, &shard.now, *shard.tracer, shard.window_end, SIZE_MAX);
    shard.busy_s += WallClockSeconds() - wall_start;
    if (workers_running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Wake(cv_done_);
    }
  }
}

template <typename Ready>
void Simulator::Await(CondVar& cv, Ready ready) {
  if (spin_) {
    const double deadline = WallClockSeconds() + kSpinSeconds;
    do {
      for (int i = 0; i < 64; ++i) {
        if (ready()) {
          return;
        }
        CpuRelax();
      }
    } while (WallClockSeconds() < deadline);
  }
  MutexLock lock(&mu_);
  if (!ready()) {
    ++parks_;
  }
  while (!ready()) {
    cv.Wait(mu_);
  }
}

void Simulator::Wake(CondVar& cv) {
  // The lock orders this wake after a waiter's last check under mu_, so a waiter that
  // saw the old state is already inside Wait and gets the notification.
  { MutexLock lock(&mu_); }
  cv.NotifyAll();
}

void Simulator::FoldObservability() {
  // Spans: canonical span-id order. Both the set and the ids are K-independent, so the
  // sorted fold is byte-stable; ids are unique (disjoint per-origin ranges), so the
  // sort is a strict order with nothing left to tie-break.
  std::vector<SpanRecord> all = std::move(shards_[0]->spans);
  shards_[0]->spans.clear();
  for (size_t i = 1; i < num_shards_; ++i) {
    std::vector<SpanRecord> spans = shards_[i]->tracer->TakeSpans();
    all.insert(all.end(), std::make_move_iterator(spans.begin()),
               std::make_move_iterator(spans.end()));
  }
  if (!all.empty()) {
    std::sort(all.begin(), all.end(),
              [](const SpanRecord& a, const SpanRecord& b) { return a.span_id < b.span_id; });
    GlobalTracer().AppendSpans(std::move(all));
  }
  // Shard 0 recorded its metrics and profile straight into this thread's sinks.
  MetricsRegistry& main_registry = GlobalMetrics();
  Profiler& main_profiler = GlobalProfiler();
  for (size_t i = 1; i < num_shards_; ++i) {
    Shard& shard = *shards_[i];
    main_registry.MergeFrom(*shard.metrics);
    shard.metrics->ResetValues();
    if (main_profiler.enabled()) {
      main_profiler.MergeFrom(*shard.profiler);
      shard.profiler->Reset();
    }
  }
}

uint64_t Simulator::events_cancelled() const {
  uint64_t total = control_.cancelled_total();
  for (const auto& shard : shards_) {
    total += shard->queue.cancelled_total();
  }
  return total;
}

void Simulator::SyncCancelledCounter() {
  const uint64_t total = events_cancelled();
  cancelled_counter_->Increment(total - cancelled_synced_);
  cancelled_synced_ = total;
}

bool Simulator::Idle() const { return PendingEvents() == 0; }

size_t Simulator::PendingEvents() const {
  size_t total = control_.Size();
  for (const auto& shard : shards_) {
    total += shard->queue.Size();
    for (const auto& parity : shard->outbox) {
      for (const auto& to : parity) {
        total += to.size();
      }
    }
  }
  return total;
}

Simulator::BarrierStats Simulator::barrier_stats() const {
  BarrierStats stats;
  if (num_shards_ == 1) {
    return stats;
  }
  stats.windows = windows_;
  stats.serial_s = run_wall_seconds_ - window_wall_s_;
  for (const auto& shard : shards_) {
    stats.cross_shard_messages += shard->cross_shard_sent;
    stats.worker_busy_s += shard->busy_s;
  }
  stats.worker_wait_s =
      static_cast<double>(num_shards_ - 1) * run_wall_seconds_ - stats.worker_busy_s;
  MutexLock lock(&mu_);
  stats.parks = parks_;
  return stats;
}

void Simulator::ReserveEvents(size_t n) {
  for (auto& shard : shards_) {
    shard->queue.Reserve(n / num_shards_ + 1);
  }
}

double Simulator::EventsPerSecond() const {
  if (events_fired_ == 0 || run_wall_seconds_ <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(events_fired_) / run_wall_seconds_;
}

}  // namespace totoro
