// Causal tracing over virtual time.
//
// One broadcast/aggregation flows through many layers (DHT routing, forest fan-out,
// engine callbacks) and many hosts; this module reconstructs that flow as a tree of
// spans. A span is one operation on one host over a virtual-time interval; spans carry a
// trace id (the causal chain they belong to) and a parent span id, so a whole federated
// round exports as one connected tree loadable in chrome://tracing / Perfetto (see
// export.h).
//
// Spans are stamped with the thread's virtual clock (VirtualClock() in
// src/common/logging.h, which the Simulator registers); they read 0 outside a simulator.
//
// Propagation model (single-threaded simulator):
//  - `TraceSpan` (RAII) opens a span and pushes its context onto the tracer's scope
//    stack; anything started inside the scope — nested spans, messages sent through
//    `Network::Send` — parents to it automatically.
//  - `Message::trace` carries the context across hosts: Network::Send records the
//    transmission as a span (parented to the sender's current scope) and stamps the
//    message with it; the receiving layer opens its handler span with
//    `BeginWithParent(..., msg.trace)`.
//  - Work that crosses virtual time without a live scope (a scheduled compute delay, a
//    multi-round engine span) uses `AllocateContext` + `EmitSpan` and re-enters the
//    context in the callback with `ScopedTraceContext`.
//
// Tracing is off by default and must be zero-cost when disabled: every Begin*/Instant
// entry point is an inline `enabled_` check that bypasses the out-of-line slow path, so
// determinism tests and benches pay one predictable branch per emit site.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace totoro {

// Identifies one causal chain (trace) and one operation within it (span).
// trace_id == 0 means "no context" everywhere.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

using TraceArgs = std::vector<std::pair<std::string, std::string>>;

// One finished span. `host` is the HostId the operation ran on (UINT32_MAX for
// harness-level operations that belong to no single host).
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;      // layer.object.unit, e.g. "dht.route.hop".
  std::string category;  // Layer: "net", "dht", "pubsub", "engine", "bandit".
  uint32_t host = UINT32_MAX;
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool instant = false;  // Point event (start_ms == end_ms by construction).
  TraceArgs args;
};

class Tracer;

// RAII span over virtual time: records [construction, destruction) against the tracer's
// clock and scopes the implicit parent for everything started in between. Inert (no-op)
// when default-constructed or when tracing was disabled at Begin time.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan(TraceSpan&& other) noexcept;
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  ~TraceSpan() { End(); }

  bool active() const { return tracer_ != nullptr; }
  TraceContext context() const {
    return active() ? TraceContext{record_.trace_id, record_.span_id} : TraceContext{};
  }
  void AddArg(std::string key, std::string value);
  // Closes the span early (idempotent).
  void End();

 private:
  friend class Tracer;
  TraceSpan(Tracer* tracer, SpanRecord record) : tracer_(tracer), record_(std::move(record)) {}

  Tracer* tracer_ = nullptr;
  SpanRecord record_;
};

// Re-enters a previously allocated context as the implicit parent (for scheduled
// callbacks that outlive the scope that caused them). Inert when `ctx` is invalid or
// tracing is disabled.
class ScopedTraceContext {
 public:
  ScopedTraceContext() = default;
  explicit ScopedTraceContext(TraceContext ctx);
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;
  ~ScopedTraceContext();

 private:
  bool pushed_ = false;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  // Enabling/disabling never discards already-recorded spans.
  void SetEnabled(bool on) { enabled_ = on; }

  // The thread's virtual clock (VirtualClock() in src/common/logging.h), or 0 when no
  // simulator registered one.
  static double NowMs();

  // The innermost open scope, or an invalid context.
  TraceContext current() const { return scope_.empty() ? TraceContext{} : scope_.back(); }

  // Opens a span parented to the current scope / an explicit parent. An invalid parent
  // starts a fresh trace. Inline disabled-check: an inert TraceSpan costs one branch.
  TraceSpan Begin(const char* name, const char* category, uint32_t host) {
    if (!enabled_) {
      return TraceSpan();
    }
    return BeginImpl(name, category, host, current());
  }
  TraceSpan BeginWithParent(const char* name, const char* category, uint32_t host,
                            TraceContext parent) {
    if (!enabled_) {
      return TraceSpan();
    }
    return BeginImpl(name, category, host, parent);
  }

  // Records a span with explicit timestamps (message transmissions, compute delays).
  // Returns the recorded span's context for propagation. No-op returning {} when
  // disabled.
  TraceContext RecordComplete(const char* name, const char* category, uint32_t host,
                              double start_ms, double end_ms, TraceContext parent,
                              TraceArgs args = {}) {
    if (!enabled_) {
      return TraceContext{};
    }
    return RecordCompleteImpl(name, category, host, start_ms, end_ms, parent,
                              std::move(args));
  }

  // Point event at the current clock / an explicit virtual timestamp.
  void Instant(const char* name, const char* category, uint32_t host, TraceContext parent,
               TraceArgs args = {}) {
    if (enabled_) {
      InstantAtImpl(name, category, host, NowMs(), parent, std::move(args));
    }
  }
  void InstantAt(const char* name, const char* category, uint32_t host, double at_ms,
                 TraceContext parent, TraceArgs args = {}) {
    if (enabled_) {
      InstantAtImpl(name, category, host, at_ms, parent, std::move(args));
    }
  }

  // Pre-allocates a context for a span whose record is emitted later via EmitSpan
  // (e.g. an engine round that closes many virtual ms after it starts). Children can
  // parent to the context immediately.
  TraceContext AllocateContext() {
    if (!enabled_) {
      return TraceContext{};
    }
    return TraceContext{NextTraceId(), NextSpanId()};
  }

  // --- Canonical id source (sharded execution) ---
  // While set, every new trace/span id is `base + (*counter)++` instead of the tracer's
  // own sequential counters. The sharded run loop installs the executing host's
  // (base, per-host op counter) before each event, which makes every allocated id a
  // pure function of that host's execution stream — independent of shard count and of
  // which worker thread runs the event. Ids from distinct hosts can't collide because
  // each host owns a disjoint `base` range, and none collide with the sequential ids
  // (those stay below the smallest base).
  void SetIdSource(uint64_t base, uint64_t* counter) {
    id_base_ = base;
    id_counter_ = counter;
  }
  void ClearIdSource() { id_counter_ = nullptr; }

  // Moves all recorded spans out (sink left empty; id counters untouched). The sharded
  // coordinator drains worker tracers with this and folds the result into the main
  // tracer via AppendSpans in canonical (span_id) order.
  std::vector<SpanRecord> TakeSpans() {
    std::vector<SpanRecord> out = std::move(spans_);
    spans_.clear();
    return out;
  }
  void AppendSpans(std::vector<SpanRecord> spans) {
    for (SpanRecord& s : spans) {
      spans_.push_back(std::move(s));
    }
  }
  // Exchanges the open-scope stack and the span sink with `*scope` / `*spans`. The
  // single-shard simulator runs host events on the calling thread; swapping in their
  // own stack and sink gives them exactly what a shard worker's tracer would see.
  void SwapScopeAndSpans(std::vector<TraceContext>* scope, std::vector<SpanRecord>* spans) {
    scope_.swap(*scope);
    spans_.swap(*spans);
  }
  void EmitSpan(TraceContext ctx, uint64_t parent_span_id, const char* name,
                const char* category, uint32_t host, double start_ms, double end_ms,
                TraceArgs args = {});

  const std::vector<SpanRecord>& spans() const { return spans_; }
  size_t num_spans() const { return spans_.size(); }

  // Drops all recorded spans and restarts id assignment (so runs are comparable).
  // Open scopes are unaffected; call between runs, not inside one.
  void Clear();

 private:
  friend class TraceSpan;
  friend class ScopedTraceContext;

  uint64_t NextTraceId() {
    return id_counter_ != nullptr ? id_base_ + (*id_counter_)++ : next_trace_id_++;
  }
  uint64_t NextSpanId() {
    return id_counter_ != nullptr ? id_base_ + (*id_counter_)++ : next_span_id_++;
  }

  TraceSpan BeginImpl(const char* name, const char* category, uint32_t host,
                      TraceContext parent);
  TraceContext RecordCompleteImpl(const char* name, const char* category, uint32_t host,
                                  double start_ms, double end_ms, TraceContext parent,
                                  TraceArgs args);
  void InstantAtImpl(const char* name, const char* category, uint32_t host, double at_ms,
                     TraceContext parent, TraceArgs args);
  void EndSpan(SpanRecord record);
  void PushScope(TraceContext ctx) { scope_.push_back(ctx); }
  void PopScope() { scope_.pop_back(); }

  bool enabled_ = false;
  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  uint64_t id_base_ = 0;
  uint64_t* id_counter_ = nullptr;  // Non-null => canonical id source active.
  std::vector<TraceContext> scope_;
  std::vector<SpanRecord> spans_;
};

// The thread-wide tracer. The simulation is single-threaded by design; one tracer per
// thread serves whichever of that thread's simulators registered the thread's virtual
// clock, and parallel bench trials on worker threads each get an isolated span sink.
Tracer& GlobalTracer();

}  // namespace totoro

#endif  // SRC_OBS_TRACE_H_
