#include "src/obs/trace.h"

#include "src/common/check.h"
#include "src/common/logging.h"

namespace totoro {

double Tracer::NowMs() {
  const double* clock = VirtualClock();
  return clock != nullptr ? *clock : 0.0;
}

TraceSpan::TraceSpan(TraceSpan&& other) noexcept
    : tracer_(other.tracer_), record_(std::move(other.record_)) {
  other.tracer_ = nullptr;
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    record_ = std::move(other.record_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void TraceSpan::AddArg(std::string key, std::string value) {
  if (active()) {
    record_.args.emplace_back(std::move(key), std::move(value));
  }
}

void TraceSpan::End() {
  if (!active()) {
    return;
  }
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  record_.end_ms = tracer->NowMs();
  tracer->EndSpan(std::move(record_));
}

ScopedTraceContext::ScopedTraceContext(TraceContext ctx) {
  if (GlobalTracer().enabled() && ctx.valid()) {
    GlobalTracer().PushScope(ctx);
    pushed_ = true;
  }
}

ScopedTraceContext::~ScopedTraceContext() {
  if (pushed_) {
    GlobalTracer().PopScope();
  }
}

TraceSpan Tracer::BeginImpl(const char* name, const char* category, uint32_t host,
                            TraceContext parent) {
  SpanRecord record;
  record.trace_id = parent.valid() ? parent.trace_id : NextTraceId();
  record.span_id = NextSpanId();
  record.parent_span_id = parent.span_id;
  record.name = name;
  record.category = category;
  record.host = host;
  record.start_ms = NowMs();
  PushScope(TraceContext{record.trace_id, record.span_id});
  return TraceSpan(this, std::move(record));
}

void Tracer::EndSpan(SpanRecord record) {
  // Spans close LIFO (RAII scopes in a single-threaded simulator).
  CHECK(!scope_.empty());
  CHECK_EQ(scope_.back().span_id, record.span_id);
  PopScope();
  spans_.push_back(std::move(record));
}

TraceContext Tracer::RecordCompleteImpl(const char* name, const char* category,
                                        uint32_t host, double start_ms, double end_ms,
                                        TraceContext parent, TraceArgs args) {
  const TraceContext ctx{parent.valid() ? parent.trace_id : NextTraceId(),
                         NextSpanId()};
  SpanRecord record;
  record.trace_id = ctx.trace_id;
  record.span_id = ctx.span_id;
  record.parent_span_id = parent.span_id;
  record.name = name;
  record.category = category;
  record.host = host;
  record.start_ms = start_ms;
  record.end_ms = end_ms;
  record.args = std::move(args);
  spans_.push_back(std::move(record));
  return ctx;
}

void Tracer::InstantAtImpl(const char* name, const char* category, uint32_t host,
                           double at_ms, TraceContext parent, TraceArgs args) {
  SpanRecord record;
  record.trace_id = parent.valid() ? parent.trace_id : NextTraceId();
  record.span_id = NextSpanId();
  record.parent_span_id = parent.span_id;
  record.name = name;
  record.category = category;
  record.host = host;
  record.start_ms = at_ms;
  record.end_ms = at_ms;
  record.instant = true;
  record.args = std::move(args);
  spans_.push_back(std::move(record));
}

void Tracer::EmitSpan(TraceContext ctx, uint64_t parent_span_id, const char* name,
                      const char* category, uint32_t host, double start_ms, double end_ms,
                      TraceArgs args) {
  if (!ctx.valid()) {
    return;
  }
  SpanRecord record;
  record.trace_id = ctx.trace_id;
  record.span_id = ctx.span_id;
  record.parent_span_id = parent_span_id;
  record.name = name;
  record.category = category;
  record.host = host;
  record.start_ms = start_ms;
  record.end_ms = end_ms;
  record.args = std::move(args);
  spans_.push_back(std::move(record));
}

void Tracer::Clear() {
  spans_.clear();
  next_trace_id_ = 1;
  next_span_id_ = 1;
}

Tracer& GlobalTracer() {
  // One tracer per THREAD: the simulation itself is single-threaded, but the parallel
  // bench runner fans independent Simulators across worker threads, and each must see
  // its own isolated span sink for trials to stay bit-identical to sequential runs.
  // Destroyed when its thread exits, so an exited worker's spans are not retained.
  // LINT: thread-confined this IS the per-thread sink; folds run with workers parked.
  static thread_local Tracer tracer;
  return tracer;
}

}  // namespace totoro
