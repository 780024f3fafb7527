// Observability subsystem: trace propagation, histogram math, exporter output, and the
// guarantee that tracing never perturbs the simulation.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "src/common/logging.h"
#include "src/core/engine.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/pubsub/forest.h"

namespace totoro {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator: the exporters promise syntactically valid
// JSON, so parse what they emit rather than spot-checking substrings.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
        const char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' && esc != 'f' &&
                   esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // Raw control characters are illegal inside JSON strings.
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    if (!DigitRun()) {
      return false;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!DigitRun()) {
        return false;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      if (!DigitRun()) {
        return false;
      }
    }
    return pos_ > start;
  }

  bool DigitRun() {
    const size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) {
        return false;
      }
    }
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalTracer().SetEnabled(false);
    GlobalTracer().Clear();
    GlobalMetrics().ResetValues();
  }
  void TearDown() override {
    GlobalTracer().SetEnabled(false);
    GlobalTracer().Clear();
    GlobalMetrics().ResetValues();
  }
};

// --------------------------- tracer basics ---------------------------------

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = GlobalTracer();
  {
    TraceSpan span = tracer.Begin("x", "test", 0);
    EXPECT_FALSE(span.active());
    EXPECT_FALSE(span.context().valid());
  }
  tracer.Instant("i", "test", 0, TraceContext{});
  EXPECT_EQ(tracer.RecordComplete("c", "test", 0, 0.0, 1.0, TraceContext{}).valid(), false);
  EXPECT_FALSE(tracer.AllocateContext().valid());
  EXPECT_EQ(tracer.num_spans(), 0u);
}

TEST_F(ObsTest, NestedSpansParentImplicitly) {
  Tracer& tracer = GlobalTracer();
  tracer.SetEnabled(true);
  TraceContext outer_ctx;
  {
    TraceSpan outer = tracer.Begin("outer", "test", 1);
    outer_ctx = outer.context();
    {
      TraceSpan inner = tracer.Begin("inner", "test", 1);
      EXPECT_EQ(inner.context().trace_id, outer_ctx.trace_id);
    }
  }
  ASSERT_EQ(tracer.num_spans(), 2u);
  // Inner closes first; records append in close order.
  EXPECT_EQ(tracer.spans()[0].name, "inner");
  EXPECT_EQ(tracer.spans()[0].parent_span_id, outer_ctx.span_id);
  EXPECT_EQ(tracer.spans()[1].name, "outer");
  EXPECT_EQ(tracer.spans()[1].parent_span_id, 0u);
}

TEST_F(ObsTest, ScopedTraceContextReentersParent) {
  Tracer& tracer = GlobalTracer();
  tracer.SetEnabled(true);
  const TraceContext ctx = tracer.AllocateContext();
  {
    ScopedTraceContext scope(ctx);
    TraceSpan child = tracer.Begin("child", "test", 2);
    EXPECT_EQ(child.context().trace_id, ctx.trace_id);
  }
  ASSERT_EQ(tracer.num_spans(), 1u);
  EXPECT_EQ(tracer.spans()[0].parent_span_id, ctx.span_id);
  EXPECT_FALSE(tracer.current().valid());
}

// ------------------------ trace-id propagation ------------------------------

TEST_F(ObsTest, TraceIdPropagatesAcrossMultiHopRoute) {
  Simulator sim;
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 99), net_config);
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(99);
  for (int i = 0; i < 60; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);

  constexpr int kProbe = 500;
  int delivered_hops = -1;
  for (size_t i = 0; i < pastry.size(); ++i) {
    pastry.node(i).SetDeliverHandler(
        kProbe, [&](const NodeId&, const Message&, int hops) { delivered_hops = hops; });
  }

  Tracer& tracer = GlobalTracer();
  tracer.SetEnabled(true);
  tracer.Clear();

  // Route from node 0 toward successive node ids until the overlay needs >= 2 hops, so
  // the chain test exercises real multi-hop forwarding.
  for (size_t target = 1; target < pastry.size(); ++target) {
    tracer.Clear();
    delivered_hops = -1;
    Message probe;
    probe.type = kProbe;
    probe.size_bytes = 64;
    pastry.node(0).Route(pastry.node(target).id(), std::move(probe));
    sim.Run();
    ASSERT_GE(delivered_hops, 0) << "probe not delivered";
    if (delivered_hops >= 2) {
      break;
    }
  }
  ASSERT_GE(delivered_hops, 2) << "overlay too small to produce a multi-hop route";

  // Every span of the route shares the origin's trace id.
  std::unordered_map<uint64_t, const SpanRecord*> by_span_id;
  const SpanRecord* origin = nullptr;
  for (const auto& span : tracer.spans()) {
    by_span_id[span.span_id] = &span;
    if (span.name == "dht.route") {
      origin = &span;
    }
  }
  ASSERT_NE(origin, nullptr);
  size_t hop_spans = 0;
  for (const auto& span : tracer.spans()) {
    EXPECT_EQ(span.trace_id, origin->trace_id) << span.name;
    hop_spans += span.name == "dht.route.hop" ? 1 : 0;
  }
  EXPECT_EQ(hop_spans, static_cast<size_t>(delivered_hops));

  // The last hop's parent chain must reach the origin span: hop -> net.msg -> previous
  // hop -> ... -> dht.route.
  const SpanRecord* last_hop = nullptr;
  for (const auto& span : tracer.spans()) {
    if (span.name == "dht.route.hop" &&
        (last_hop == nullptr || span.start_ms > last_hop->start_ms)) {
      last_hop = &span;
    }
  }
  ASSERT_NE(last_hop, nullptr);
  const SpanRecord* cursor = last_hop;
  int steps = 0;
  while (cursor != origin) {
    ASSERT_NE(cursor->parent_span_id, 0u) << "chain broke at " << cursor->name;
    auto it = by_span_id.find(cursor->parent_span_id);
    ASSERT_NE(it, by_span_id.end());
    cursor = it->second;
    ASSERT_LT(++steps, 100) << "parent cycle";
  }
  // Chain alternates hop and transmission spans: 2 per overlay hop.
  EXPECT_EQ(steps, 2 * delivered_hops);
}

TEST_F(ObsTest, FederatedRoundExportsAsConnectedTree) {
  Tracer& tracer = GlobalTracer();
  tracer.SetEnabled(true);

  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(2.0, 20.0, 7), NetworkConfig{});
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(7);
  for (int i = 0; i < 24; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  Forest forest(&pastry, ScribeConfig{});
  TotoroEngine engine(&forest, ComputeModel{}, 8);

  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_classes = 3;
  spec.seed = 9;
  SyntheticTask task(spec);
  Rng data_rng(10);
  FlAppConfig config;
  config.name = "trace-app";
  config.model_factory = [](uint64_t s) { return MakeMlp("m", 8, 8, 3, s); };
  config.target_accuracy = 2.0;  // Unreachable: run exactly max_rounds.
  config.max_rounds = 2;
  std::vector<size_t> workers;
  std::vector<Dataset> shards;
  for (size_t i = 0; i < 8; ++i) {
    workers.push_back(i);
    shards.push_back(task.Generate(40, data_rng));
  }
  engine.LaunchApp(config, workers, std::move(shards), task.Generate(60, data_rng));
  engine.StartAll();
  ASSERT_TRUE(engine.RunToCompletion());

  std::unordered_map<uint64_t, const SpanRecord*> by_span_id;
  for (const auto& span : tracer.spans()) {
    by_span_id[span.span_id] = &span;
  }
  size_t rounds = 0, broadcasts = 0, trains = 0, update_hops = 0;
  for (const auto& span : tracer.spans()) {
    if (span.name == "engine.round") {
      ++rounds;
      EXPECT_EQ(span.parent_span_id, 0u);  // Rounds are trace roots.
      EXPECT_GT(span.end_ms, span.start_ms);
    } else if (span.name == "pubsub.broadcast") {
      ++broadcasts;
      // The broadcast parents directly to its round span.
      auto it = by_span_id.find(span.parent_span_id);
      ASSERT_NE(it, by_span_id.end());
      EXPECT_EQ(it->second->name, "engine.round");
      EXPECT_EQ(it->second->trace_id, span.trace_id);
    } else if (span.name == "engine.local_train") {
      ++trains;
      EXPECT_GT(span.end_ms, span.start_ms);  // Covers the compute delay.
    } else if (span.name == "pubsub.update.hop") {
      ++update_hops;
    }
  }
  EXPECT_EQ(rounds, 2u);
  EXPECT_EQ(broadcasts, 2u);
  EXPECT_EQ(trains, 16u);  // 8 workers x 2 rounds.
  EXPECT_GT(update_hops, 0u);

  // Every local-train span walks up to its round span within the same trace, and its
  // interval nests inside the round's interval (virtual-time timestamps agree).
  for (const auto& span : tracer.spans()) {
    if (span.name != "engine.local_train") {
      continue;
    }
    const SpanRecord* cursor = &span;
    int steps = 0;
    while (cursor->name != "engine.round") {
      auto it = by_span_id.find(cursor->parent_span_id);
      ASSERT_NE(it, by_span_id.end()) << "orphaned " << cursor->name;
      cursor = it->second;
      ASSERT_LT(++steps, 100);
    }
    EXPECT_EQ(cursor->trace_id, span.trace_id);
    EXPECT_GE(span.start_ms, cursor->start_ms);
    EXPECT_LE(span.end_ms, cursor->end_ms);
  }
}

// --------------------------- histogram math ---------------------------------

TEST_F(ObsTest, HistogramBucketBoundaries) {
  Histogram h({1.0, 2.0, 5.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + overflow.
  h.Observe(1.0);        // Exactly on a bound: belongs to that bucket (le semantics).
  h.Observe(1.0000001);  // Just above: next bucket.
  h.Observe(2.0);
  h.Observe(5.0);
  h.Observe(5.1);  // Overflow.
  h.Observe(-3.0);  // Below every bound: first bucket.
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.1);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.0000001 + 2.0 + 5.0 + 5.1 - 3.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper_bound(2), 5.0);
  EXPECT_TRUE(std::isinf(h.bucket_upper_bound(3)));

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST_F(ObsTest, HistogramQuantilesAreOrderedAndClamped) {
  Histogram h(Histogram::DefaultLatencyBoundsMs());
  for (int i = 1; i <= 1000; ++i) {
    h.Observe(static_cast<double>(i) * 0.1);  // 0.1 .. 100.0
  }
  const double p50 = h.ApproxQuantile(0.5);
  const double p99 = h.ApproxQuantile(0.99);
  EXPECT_LE(h.min(), p50);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, h.max());
  // The estimate lands near the true median despite coarse buckets.
  EXPECT_NEAR(p50, 50.0, 15.0);
}

TEST_F(ObsTest, RegistryReferencesAreStableAcrossReset) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test.counter");
  Histogram& h = registry.GetHistogram("test.hist", {1.0, 2.0});
  c.Increment(5);
  h.Observe(1.5);
  registry.ResetValues();
  EXPECT_EQ(&registry.GetCounter("test.counter"), &c);
  EXPECT_EQ(&registry.GetHistogram("test.hist"), &h);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

// ------------------------------ exporters -----------------------------------

TEST_F(ObsTest, ExportedJsonIsWellFormed) {
  Tracer& tracer = GlobalTracer();
  tracer.SetEnabled(true);
  {
    TraceSpan span = tracer.Begin("outer\"quoted\\name", "test", 3);
    span.AddArg("newline\nkey", "tab\tvalue");
    tracer.Instant("point", "test", 4, span.context(), {{"k", "v"}});
  }
  MetricsRegistry registry;
  registry.GetCounter("a.counter").Increment(7);
  registry.GetGauge("a.gauge").Set(-2.5);
  Histogram& h = registry.GetHistogram("a.hist", {1.0, 10.0});
  h.Observe(0.5);
  h.Observe(100.0);

  const std::string trace_json = TraceToChromeJson(tracer);
  EXPECT_TRUE(JsonValidator(trace_json).Valid()) << trace_json;
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"ph\":\"i\""), std::string::npos);

  const std::string metrics_json = MetricsToJson(registry);
  EXPECT_TRUE(JsonValidator(metrics_json).Valid()) << metrics_json;
  EXPECT_NE(metrics_json.find("\"a.counter\""), std::string::npos);
  EXPECT_NE(metrics_json.find("\"+Inf\""), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceTimestampsAreVirtualMicroseconds) {
  Tracer& tracer = GlobalTracer();
  tracer.SetEnabled(true);
  tracer.RecordComplete("fixed", "test", 5, 1.5, 3.5, TraceContext{});
  const std::string json = TraceToChromeJson(tracer);
  // 1.5 virtual ms -> ts 1500 us; 2 ms duration -> dur 2000 us.
  EXPECT_NE(json.find("\"ts\":1500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":2000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":5"), std::string::npos) << json;
}

// ------------------------- determinism guarantee ----------------------------

struct RunOutput {
  std::vector<AccuracyPoint> curve;
  double total_time_ms = 0.0;
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
};

RunOutput RunFlOnce(uint64_t seed) {
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(2.0, 30.0, seed), NetworkConfig{});
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(seed);
  for (int i = 0; i < 40; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  Forest forest(&pastry, ScribeConfig{});
  TotoroEngine engine(&forest, ComputeModel{}, seed + 1);

  SyntheticSpec spec;
  spec.dim = 12;
  spec.num_classes = 3;
  spec.seed = seed + 2;
  SyntheticTask task(spec);
  Rng data_rng(seed + 3);
  FlAppConfig config;
  config.name = "obs-determinism";
  config.model_factory = [](uint64_t s) { return MakeMlp("m", 12, 12, 3, s); };
  config.target_accuracy = 2.0;
  config.max_rounds = 4;
  std::vector<size_t> workers;
  std::vector<Dataset> shards;
  for (size_t i = 0; i < 10; ++i) {
    workers.push_back(i);
    shards.push_back(task.Generate(50, data_rng));
  }
  const NodeId topic =
      engine.LaunchApp(config, workers, std::move(shards), task.Generate(100, data_rng));
  engine.StartAll();
  EXPECT_TRUE(engine.RunToCompletion());

  RunOutput out;
  out.curve = engine.result(topic).curve;
  out.total_time_ms = engine.result(topic).total_time_ms;
  out.total_messages = net.metrics().total_messages();
  out.total_bytes = net.metrics().total_bytes();
  return out;
}

TEST_F(ObsTest, TracingDoesNotPerturbSimulation) {
  GlobalTracer().SetEnabled(false);
  const RunOutput off = RunFlOnce(1234);
  GlobalTracer().SetEnabled(true);
  const RunOutput on = RunFlOnce(1234);
  EXPECT_GT(GlobalTracer().num_spans(), 0u);  // Tracing actually ran.
  GlobalTracer().SetEnabled(false);

  ASSERT_EQ(off.curve.size(), on.curve.size());
  for (size_t i = 0; i < off.curve.size(); ++i) {
    EXPECT_EQ(off.curve[i].time_ms, on.curve[i].time_ms);
    EXPECT_EQ(off.curve[i].accuracy, on.curve[i].accuracy);
    EXPECT_EQ(off.curve[i].round, on.curve[i].round);
  }
  EXPECT_EQ(off.total_time_ms, on.total_time_ms);
  EXPECT_EQ(off.total_messages, on.total_messages);
  EXPECT_EQ(off.total_bytes, on.total_bytes);
}

// --------------------------- drop attribution -------------------------------

TEST_F(ObsTest, RecordDropAttributesHostAndClass) {
  NetworkMetrics metrics;
  metrics.EnsureHosts(3);
  metrics.RecordDrop(1, TrafficClass::kModel);
  metrics.RecordDrop(1, TrafficClass::kGradient);
  metrics.RecordDrop(2, TrafficClass::kModel);
  EXPECT_EQ(metrics.traffic(0).msgs_dropped(), 0u);
  EXPECT_EQ(metrics.traffic(1).msgs_dropped(), 2u);
  EXPECT_EQ(metrics.traffic(2).msgs_dropped(), 1u);
  const auto model = static_cast<size_t>(TrafficClass::kModel);
  const auto gradient = static_cast<size_t>(TrafficClass::kGradient);
  EXPECT_EQ(metrics.traffic(1).msgs_dropped_by_class[model], 1u);
  EXPECT_EQ(metrics.traffic(1).msgs_dropped_by_class[gradient], 1u);
  EXPECT_EQ(metrics.traffic(2).msgs_dropped_by_class[model], 1u);
  EXPECT_EQ(metrics.DroppedByClass(TrafficClass::kModel), 2u);
  EXPECT_EQ(metrics.DroppedByClass(TrafficClass::kGradient), 1u);
  EXPECT_EQ(metrics.DroppedByClass(TrafficClass::kControl), 0u);
  EXPECT_EQ(metrics.dropped_messages(), 3u);

  MetricsRegistry registry;
  metrics.PublishTo(registry);
  EXPECT_DOUBLE_EQ(registry.GetGauge("net.drops.class.model").value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("net.hosts.with_drops").value(), 2.0);

  metrics.Reset();
  EXPECT_EQ(metrics.DroppedByClass(TrafficClass::kModel), 0u);
  EXPECT_EQ(metrics.traffic(1).msgs_dropped(), 0u);
  EXPECT_EQ(metrics.dropped_messages(), 0u);
}

TEST_F(ObsTest, NetworkAttributesDropsToTheRightEndpoint) {
  Simulator sim;
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 1.0, 1), net_config);
  struct Sink : Host {
    void HandleMessage(const Message&) override {}
  };
  Sink a, b;
  const HostId ha = net.AddHost(&a);
  const HostId hb = net.AddHost(&b);

  // Down sender: drop on the source.
  net.SetHostUp(ha, false);
  Message m1;
  m1.src = ha;
  m1.dst = hb;
  m1.traffic = TrafficClass::kModel;
  net.Send(m1);
  EXPECT_EQ(net.metrics().traffic(ha).msgs_dropped(), 1u);

  // Down receiver at delivery time: drop on the destination.
  net.SetHostUp(ha, true);
  Message m2;
  m2.src = ha;
  m2.dst = hb;
  m2.traffic = TrafficClass::kGradient;
  net.Send(m2);
  net.SetHostUp(hb, false);
  sim.Run();
  EXPECT_EQ(net.metrics().traffic(hb).msgs_dropped(), 1u);
  EXPECT_EQ(net.metrics().DroppedByClass(TrafficClass::kModel), 1u);
  EXPECT_EQ(net.metrics().DroppedByClass(TrafficClass::kGradient), 1u);
}

// ------------------------------ log level -----------------------------------

TEST_F(ObsTest, LogLevelEnvOverrideWinsOverProgrammatic) {
  const LogLevel original = GetLogLevel();

  ::setenv("TOTORO_LOG_LEVEL", "debug", 1);
  EXPECT_TRUE(InitLogLevelFromEnv());
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);  // Env wins.

  ::setenv("TOTORO_LOG_LEVEL", "3", 1);  // Numeric form.
  EXPECT_TRUE(InitLogLevelFromEnv());
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);

  ::setenv("TOTORO_LOG_LEVEL", "bogus", 1);
  EXPECT_FALSE(InitLogLevelFromEnv());  // Invalid value: fall back to programmatic.
  SetLogLevel(LogLevel::kInfo);
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);

  ::unsetenv("TOTORO_LOG_LEVEL");
  EXPECT_FALSE(InitLogLevelFromEnv());
  SetLogLevel(original);
  EXPECT_EQ(GetLogLevel(), original);
}

}  // namespace
}  // namespace totoro
