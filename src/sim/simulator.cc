#include "src/sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profiler.h"
#include "src/sim/shard_slot.h"

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
  for (size_t i = 0; i < num_shards; ++i) {
    shards_[i]->outbox.resize(num_shards);
    shards_[i]->thread = std::thread(&Simulator::WorkerMain, this, i);
  }
  // Wait until every worker has published its thread-local sink pointers, so folds and
  // flag propagation never read a null Shard::tracer.
  MutexLock lock(&mu_);
  while (workers_ready_ != num_shards) {
    cv_done_.Wait(mu_);
  }
}

Simulator::~Simulator() {
  SyncCancelledCounter();
  if (num_shards_ > 1) {
    {
      MutexLock lock(&mu_);
      stopping_ = true;
    }
    cv_workers_.NotifyAll();
    for (auto& shard : shards_) {
      shard->thread.join();
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

EventHandle Simulator::ScheduleRejoin(SimTime delay, EventFn fn) {
  if (OnWorker()) {
    ++shards_[tls_worker.shard]->rejoins;  // Folded into rejoins_scheduled_ at run end.
  } else {
    ++rejoins_scheduled_;
  }
  return Schedule(delay, std::move(fn));
}

EventHandle Simulator::ScheduleMessageArrival(HostId src, HostId dst, SimTime at,
                                              EventFn fn) {
  CHECK_LT(dst, ops_.size());
  const uint64_t key = NextHostKey(src);
  if (num_shards_ == 1) {
    return shards_[0]->queue.Push(at, key, dst, std::move(fn));
  }
  SealPartition();
  const size_t dst_shard = shard_of_[dst];
  if (!OnWorker() || dst_shard == tls_worker.shard) {
    // Same shard, or the calling thread with every worker parked (control events and
    // plain driver code): push directly.
    return shards_[dst_shard]->queue.Push(at, key, dst, std::move(fn));
  }
  // Cross-shard from a worker: the src's counter is only safe because the send runs in
  // src's execution context, and the arrival can't land inside the open window because
  // propagation >= lookahead. The barrier drains it before the next window opens.
  Shard& shard = *shards_[tls_worker.shard];
  CHECK_EQ(shard.ctx.host, src);
  CHECK_GE(at, shard.window_end);
  shard.outbox[dst_shard].push_back(PendingCrossShard{at, key, dst, std::move(fn)});
  return EventHandle();
}

void Simulator::RunAsHost(HostId host, const std::function<void()>& fn) {
  SealPartition();
  CHECK_LT(host, ops_.size());
  ExecContext& ctx = Ctx();
  // A worker may only assume hosts of its own shard, where single-threaded shard
  // execution makes the identity swap safe (node methods self-wrap, so calls from
  // inside a host event re-enter here).
  CHECK(!OnWorker() || ShardIndex(host) == ctx.shard);
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
    // Propagate observability switches to the parked workers' thread-local sinks.
    for (auto& shard : shards_) {
      shard->tracer->SetEnabled(GlobalTracer().enabled());
      shard->profiler->SetEnabled(GlobalProfiler().enabled());
    }
  }
  // Closes after events_fired_ is folded below, so the scope's event delta is exact.
  ProfileScope profile_scope("sim_run");
  running_ = true;
  const double wall_start = WallClockSeconds();
  size_t fired_total = 0;
  while (fired_total < max_events) {
    DrainOutboxes();
    SimTime t_first = kNever;
    SimTime t = 0.0;
    for (auto& shard : shards_) {
      if (shard->queue.PeekTime(&t)) {
        t_first = std::min(t_first, t);
      }
    }
    const SimTime control_next = control_.PeekTime(&t) ? t : kNever;
    t_first = std::min(t_first, control_next);
    if (t_first >= end_exclusive) {
      break;
    }
    // K=1 stops exactly at max_events and at every sampling point; K>1 is
    // window-granular.
    size_t budget = max_events - fired_total;
    if (num_shards_ == 1 && sample_every_ != 0) {
      budget = std::min<size_t>(budget, sample_every_ - events_since_sample_ % sample_every_);
    }
    now_ = t_first;
    size_t fired = 0;
    if (control_next == t_first) {
      // Control-before-host at equal times, with every worker parked: control events
      // may touch any shard's state (churn scripts, engine rounds) race-free.
      fired = RunControlAt(t_first, budget);
    } else if (num_shards_ == 1) {
      Shard& shard = *shards_[0];
      Tracer& tracer = GlobalTracer();
      tracer.SwapScopeAndSpans(&shard.scope, &shard.spans);
      RunWindow(shard, exec_, &now_, tracer, std::min(control_next, end_exclusive), budget);
      tracer.SwapScopeAndSpans(&shard.scope, &shard.spans);
      fired = shard.window_fired;
    } else {
      fired = RunWorkerWindows(std::min({t_first + lookahead_ms_, control_next, end_exclusive}));
    }
    fired_total += fired;
    if (sample_every_ != 0) {
      AccumulatePeriodicSample(fired, events_fired_ + fired_total,
                               run_wall_seconds_ + (WallClockSeconds() - wall_start));
    }
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

size_t Simulator::RunWorkerWindows(SimTime end) {
  {
    MutexLock lock(&mu_);
    window_end_ = end;
    workers_running_ = shards_.size();
    ++window_gen_;
  }
  cv_workers_.NotifyAll();
  {
    MutexLock lock(&mu_);
    while (workers_running_ != 0) {
      cv_done_.Wait(mu_);
    }
  }
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
  internal::ThreadShardSlot() = 1 + shard_index;
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
    SimTime end = 0.0;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && window_gen_ == seen_gen) {
        cv_workers_.Wait(mu_);
      }
      if (stopping_) {
        return;
      }
      seen_gen = window_gen_;
      // Copy the window bound out under the lock; the worker (and any conservative
      // CHECK it hits mid-window) reads only its own copy from here on.
      end = window_end_;
    }
    shard.window_end = end;
    RunWindow(shard, shard.ctx, &shard.now, *shard.tracer, end, SIZE_MAX);
    {
      MutexLock lock(&mu_);
      --workers_running_;
      if (workers_running_ == 0) {
        cv_done_.NotifyOne();
      }
    }
  }
}

void Simulator::DrainOutboxes() {
  for (auto& src : shards_) {
    for (size_t d = 0; d < src->outbox.size(); ++d) {
      for (PendingCrossShard& p : src->outbox[d]) {
        shards_[d]->queue.Push(p.at, p.key, p.exec_host, std::move(p.fn));
      }
      src->outbox[d].clear();
    }
  }
}

void Simulator::FoldObservability() {
  // Spans: canonical span-id order. Both the set and the ids are K-independent, so the
  // sorted fold is byte-stable; ids are unique (disjoint per-origin ranges), so the
  // sort is a strict order with nothing left to tie-break.
  std::vector<SpanRecord> all = std::move(shards_[0]->spans);
  shards_[0]->spans.clear();
  for (auto& shard : shards_) {
    if (shard->tracer != nullptr) {
      std::vector<SpanRecord> spans = shard->tracer->TakeSpans();
      all.insert(all.end(), std::make_move_iterator(spans.begin()),
                 std::make_move_iterator(spans.end()));
    }
  }
  if (!all.empty()) {
    std::sort(all.begin(), all.end(),
              [](const SpanRecord& a, const SpanRecord& b) { return a.span_id < b.span_id; });
    GlobalTracer().AppendSpans(std::move(all));
  }
  if (num_shards_ == 1) {
    return;
  }
  MetricsRegistry& main_registry = GlobalMetrics();
  Profiler& main_profiler = GlobalProfiler();
  for (auto& shard : shards_) {
    main_registry.MergeFrom(*shard->metrics);
    shard->metrics->ResetValues();
    if (main_profiler.enabled()) {
      main_profiler.MergeFrom(*shard->profiler);
      shard->profiler->Reset();
    }
    rejoins_scheduled_ += shard->rejoins;
    shard->rejoins = 0;
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
  }
  return total;
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

Gauge& Simulator::ThroughputGauge() {
  if (throughput_gauge_ == nullptr) {
    throughput_gauge_ = &GlobalMetrics().GetGauge("sim.events_per_sec");
  }
  return *throughput_gauge_;
}

void Simulator::PublishThroughputMetrics() { ThroughputGauge().Set(EventsPerSecond()); }

void Simulator::AccumulatePeriodicSample(uint64_t fired_delta, uint64_t total_fired,
                                         double wall_now) {
  events_since_sample_ += fired_delta;
  if (fired_delta == 0 || events_since_sample_ < sample_every_) {
    return;
  }
  events_since_sample_ %= sample_every_;
  const double dt = wall_now - window_start_wall_;
  if (dt > 0.0) {
    live_events_per_sec_ = static_cast<double>(total_fired - window_start_fired_) / dt;
    ThroughputGauge().Set(live_events_per_sec_);
  }
  window_start_fired_ = total_fired;
  window_start_wall_ = wall_now;
  Profiler& profiler = GlobalProfiler();
  profiler.RecordSample("sim_queue_depth", static_cast<double>(PendingEvents()));
  profiler.Sample();
}

}  // namespace totoro
