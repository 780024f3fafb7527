// Tests for the scoped hierarchical phase profiler (src/obs/profiler.h): nesting and
// accumulation, disabled-mode inertness, the virtual time and events a phase takes from
// the simulator runs it encloses, metric publication naming, Reset semantics, and the
// phases the library's construction layers open.
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
    p.Reset();
  }
  void TearDown() override {
    Profiler& p = GlobalProfiler();
    p.Reset();
    p.SetEnabled(false);
  }
};

// Schedules `count` no-op events, one every `every_ms` virtual ms from now.
void ScheduleTicks(Simulator& sim, int count, double every_ms) {
  for (int i = 1; i <= count; ++i) {
    sim.Schedule(every_ms * i, [] {});
  }
}

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

TEST_F(ProfilerTest, NestedPhasesTakeTheRunsTheyEnclose) {
  Simulator sim;
  ScheduleTicks(sim, 10, 10.0);  // Events at 10, 20, ..., 100 ms.
  {
    ProfileScope outer("run");
    sim.RunUntil(50.0);  // 5 events.
    {
      ProfileScope inner("step");
      sim.RunUntil(75.0);  // 2 events.
    }
    sim.RunUntil(100.0);  // 3 events.
  }
  const Profiler& p = GlobalProfiler();
  const Profiler::PhaseNode* run = p.Find("run");
  ASSERT_NE(run, nullptr);
  EXPECT_DOUBLE_EQ(run->stats.virtual_ms, 100.0);  // Inclusive of the child.
  EXPECT_EQ(run->stats.events, 10u);
  const Profiler::PhaseNode* step = p.Find("run.step");
  ASSERT_NE(step, nullptr);
  EXPECT_DOUBLE_EQ(step->stats.virtual_ms, 25.0);
  EXPECT_EQ(step->stats.events, 2u);
  // The run loop's own phase stops at the last event; RunUntil's final advance to 75
  // counts for the phases around it only.
  const Profiler::PhaseNode* step_loop = p.Find("run.step.sim_run");
  ASSERT_NE(step_loop, nullptr);
  EXPECT_DOUBLE_EQ(step_loop->stats.virtual_ms, 20.0);
  EXPECT_EQ(step_loop->stats.events, 2u);
}

TEST_F(ProfilerTest, RepeatedRunsAccumulateExactDeltas) {
  Simulator sim;
  for (int i = 0; i < 3; ++i) {
    ProfileScope scope("tick");
    sim.RunFor(10.0);
  }
  const Profiler::PhaseNode* tick = GlobalProfiler().Find("tick");
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->stats.calls, 3u);
  EXPECT_DOUBLE_EQ(tick->stats.virtual_ms, 30.0);
}

// The phase builds, runs and destroys its simulator, as a bench's whole-run phase does:
// it and its sim_run child report that run, and nothing above them counts it.
TEST_F(ProfilerTest, PhaseAroundASimulatorsLifetimeReportsItsRun) {
  {
    ProfileScope phase("whole_run");
    Simulator sim;
    ScheduleTicks(sim, 7, 3.0);
    EXPECT_EQ(sim.Run(), 7u);
  }
  const Profiler& p = GlobalProfiler();
  for (const char* path : {"whole_run", "whole_run.sim_run"}) {
    const Profiler::PhaseNode* node = p.Find(path);
    ASSERT_NE(node, nullptr) << path;
    EXPECT_EQ(node->stats.events, 7u) << path;
    EXPECT_DOUBLE_EQ(node->stats.virtual_ms, 21.0) << path;
  }
  EXPECT_EQ(p.nodes()[0].stats.events, 0u);
  EXPECT_DOUBLE_EQ(p.nodes()[0].stats.virtual_ms, 0.0);
}

TEST_F(ProfilerTest, PhaseSpanningTwoSimulatorsReportsTheSum) {
  Simulator first;
  ScheduleTicks(first, 4, 10.0);
  first.Run();  // Before the phase: counts for no phase that opens later.
  ScheduleTicks(first, 2, 5.0);
  {
    ProfileScope phase("two_sims");
    first.Run();  // 2 events, 40 -> 50 ms.
    Simulator second;
    ScheduleTicks(second, 3, 4.0);
    second.RunUntil(20.0);  // 3 events, 0 -> 20 ms.
  }
  const Profiler::PhaseNode* both = GlobalProfiler().Find("two_sims");
  ASSERT_NE(both, nullptr);
  EXPECT_EQ(both->stats.events, 5u);
  EXPECT_DOUBLE_EQ(both->stats.virtual_ms, 30.0);
}

TEST_F(ProfilerTest, PublishToMetricsEmitsOnlyDeterministicFields) {
  Profiler& p = GlobalProfiler();
  Simulator sim;
  {
    ProfileScope outer("publish_run");
    sim.RunUntil(40.0);
    ProfileScope inner("fold");
    sim.RunUntil(50.0);
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
  {
    ProfileScope scope("dropped");
  }
  p.Reset();
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.nodes().size(), 1u);
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
