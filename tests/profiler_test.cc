// Tests for the scoped hierarchical phase profiler (src/obs/profiler.h): nesting and
// accumulation, disabled-mode inertness, deterministic virtual-time/event deltas from
// registered sources, metric publication naming, Reset semantics, and the phases the
// library's construction layers open.
#include "src/obs/profiler.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/dht/pastry_network.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/pubsub/forest.h"
#include "src/sim/latency_model.h"
#include "src/sim/simulator.h"

namespace totoro {
namespace {

// GlobalProfiler() is thread-local and persists across TESTs in this binary; every test
// starts from a clean, enabled profiler and leaves it disabled again.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler& p = GlobalProfiler();
    p.SetEnabled(true);
    p.SetClockSource(nullptr);
    p.SetEventCountSource(nullptr);
    p.Reset();
  }
  void TearDown() override {
    Profiler& p = GlobalProfiler();
    p.Reset();
    p.SetEnabled(false);
    p.SetClockSource(nullptr);
    p.SetEventCountSource(nullptr);
  }
};

TEST_F(ProfilerTest, NestedScopesBuildOnePathPerParentChain) {
  {
    ProfileScope outer("round");
    {
      ProfileScope inner("train");
    }
    {
      ProfileScope inner("train");
    }
    {
      ProfileScope inner("aggregate");
    }
  }
  {
    ProfileScope outer("round");
  }
  const Profiler& p = GlobalProfiler();
  const Profiler::PhaseNode* round = p.Find("round");
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->stats.calls, 2u);
  EXPECT_EQ(round->depth, 1);
  const Profiler::PhaseNode* train = p.Find("round.train");
  ASSERT_NE(train, nullptr);
  EXPECT_EQ(train->stats.calls, 2u);
  EXPECT_EQ(train->depth, 2);
  const Profiler::PhaseNode* aggregate = p.Find("round.aggregate");
  ASSERT_NE(aggregate, nullptr);
  EXPECT_EQ(aggregate->stats.calls, 1u);
  // The same name outside the parent is a different node.
  EXPECT_EQ(p.Find("train"), nullptr);
  EXPECT_EQ(p.open_scopes(), 0u);
}

TEST_F(ProfilerTest, PathOfRoundTripsWithFind) {
  {
    ProfileScope a("alpha");
    ProfileScope b("beta");
  }
  const Profiler& p = GlobalProfiler();
  // Root path is "", and every non-root node's PathOf resolves back through Find.
  EXPECT_EQ(p.PathOf(0), "");
  for (size_t i = 1; i < p.nodes().size(); ++i) {
    const std::string path = p.PathOf(i);
    const Profiler::PhaseNode* node = p.Find(path);
    ASSERT_NE(node, nullptr) << path;
    EXPECT_EQ(node, &p.nodes()[i]);
  }
}

TEST_F(ProfilerTest, DisabledModeCreatesNoNodes) {
  Profiler& p = GlobalProfiler();
  p.SetEnabled(false);
  {
    ProfileScope scope("ghost");
    ProfileScope nested("ghost_child");
  }
  EXPECT_EQ(p.nodes().size(), 1u);  // Only the synthetic root.
  EXPECT_EQ(p.open_scopes(), 0u);
}

TEST_F(ProfilerTest, ScopeOpenedWhileDisabledStaysInertAcrossEnable) {
  Profiler& p = GlobalProfiler();
  p.SetEnabled(false);
  {
    ProfileScope scope("ghost");
    // Enabling mid-scope must not make the destructor pop a frame it never pushed.
    p.SetEnabled(true);
  }
  EXPECT_EQ(p.open_scopes(), 0u);
  EXPECT_EQ(p.Find("ghost"), nullptr);
}

TEST_F(ProfilerTest, VirtualTimeAndEventDeltasFoldDeterministically) {
  Profiler& p = GlobalProfiler();
  double now_ms = 100.0;
  uint64_t events = 7;
  p.SetClockSource(&now_ms);
  p.SetEventCountSource(&events);
  {
    ProfileScope outer("run");
    now_ms = 150.0;
    events = 10;
    {
      ProfileScope inner("step");
      now_ms = 175.0;
      events = 16;
    }
    now_ms = 200.0;
    events = 20;
  }
  const Profiler::PhaseNode* run = p.Find("run");
  ASSERT_NE(run, nullptr);
  EXPECT_DOUBLE_EQ(run->stats.virtual_ms, 100.0);  // 200 - 100, inclusive of the child.
  EXPECT_EQ(run->stats.events, 13u);               // 20 - 7.
  const Profiler::PhaseNode* step = p.Find("run.step");
  ASSERT_NE(step, nullptr);
  EXPECT_DOUBLE_EQ(step->stats.virtual_ms, 25.0);
  EXPECT_EQ(step->stats.events, 6u);
  p.SetClockSource(nullptr);
  p.SetEventCountSource(nullptr);
}

TEST_F(ProfilerTest, RepeatedRunsAccumulateExactDeltas) {
  Profiler& p = GlobalProfiler();
  double now_ms = 0.0;
  p.SetClockSource(&now_ms);
  for (int i = 0; i < 3; ++i) {
    ProfileScope scope("tick");
    now_ms += 10.0;
  }
  const Profiler::PhaseNode* tick = p.Find("tick");
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->stats.calls, 3u);
  EXPECT_DOUBLE_EQ(tick->stats.virtual_ms, 30.0);
  p.SetClockSource(nullptr);
}

TEST_F(ProfilerTest, PublishToMetricsEmitsOnlyDeterministicFields) {
  Profiler& p = GlobalProfiler();
  double now_ms = 0.0;
  p.SetClockSource(&now_ms);
  {
    ProfileScope outer("publish_run");
    now_ms = 40.0;
    ProfileScope inner("fold");
    now_ms = 50.0;
  }
  MetricsRegistry registry;
  p.PublishToMetrics(&registry);
  EXPECT_EQ(registry.GetCounter("profile.publish_run.calls").value(), 1u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("profile.publish_run.virtual_ms").value(), 50.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("profile.publish_run.fold.virtual_ms").value(),
                   10.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("profile.publish_run.events").value(), 0.0);
  // Wall-clock must never reach the registry: the export is fully described by the
  // three deterministic series per phase.
  const std::string text = MetricsToJson(registry);
  EXPECT_EQ(text.find("wall"), std::string::npos);
  p.SetClockSource(nullptr);
}

TEST_F(ProfilerTest, ReportTextAndJsonListPhasesInDeterministicOrder) {
  {
    ProfileScope b("zeta");
  }
  {
    ProfileScope a("alpha");
  }
  const Profiler& p = GlobalProfiler();
  const std::string text = p.ReportText();
  EXPECT_LT(text.find("alpha"), text.find("zeta"));  // Name-ordered, not entry-ordered.
  const std::string json = p.ToJson();
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
}

TEST_F(ProfilerTest, ResetDropsPhasesKeepsConfiguration) {
  Profiler& p = GlobalProfiler();
  double now_ms = 0.0;
  p.SetClockSource(&now_ms);
  {
    ProfileScope scope("dropped");
  }
  p.Reset();
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.nodes().size(), 1u);
  EXPECT_EQ(p.clock_source(), &now_ms);
  p.SetClockSource(nullptr);
}

// Builds a 64-node overlay, its forest, and one topic that five members join.
void BuildOverlayForestAndSubscribe() {
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(2.0, 20.0, 7), NetworkConfig{});
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  Forest forest(&pastry, ScribeConfig{});
  forest.SubscribeAll(forest.CreateTopic("phases"), {1, 2, 3, 4, 5});
}

TEST_F(ProfilerTest, ConstructionLayersRecordOnePhaseEach) {
  BuildOverlayForestAndSubscribe();
  const Profiler& p = GlobalProfiler();
  for (const char* phase : {"oracle_build", "forest_build", "subscribe_all"}) {
    const Profiler::PhaseNode* node = p.Find(phase);
    ASSERT_NE(node, nullptr) << phase;
    EXPECT_EQ(node->stats.calls, 1u) << phase;
  }
  // The builds install state directly; neither fires an event.
  EXPECT_EQ(p.Find("oracle_build")->stats.events, 0u);
  EXPECT_EQ(p.Find("forest_build")->stats.events, 0u);
  // The JOINs settle in one run inside the subscribe, and that run is all it fires.
  const Profiler::PhaseNode* settle = p.Find("subscribe_all.sim_run");
  ASSERT_NE(settle, nullptr);
  EXPECT_EQ(settle->stats.calls, 1u);
  EXPECT_GT(settle->stats.events, 0u);
  EXPECT_EQ(settle->stats.events, p.Find("subscribe_all")->stats.events);
  EXPECT_EQ(p.Find("sim_run"), nullptr);
}

TEST_F(ProfilerTest, ConstructionLayersRecordNothingWhenOff) {
  GlobalProfiler().SetEnabled(false);
  BuildOverlayForestAndSubscribe();
  EXPECT_EQ(GlobalProfiler().nodes().size(), 1u);  // Only the synthetic root.
}

}  // namespace
}  // namespace totoro
