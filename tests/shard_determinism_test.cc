// Shard-determinism suite: the full overlay stack (Pastry keep-alives, Scribe tree
// maintenance, multi-topic subscription traffic — the fig7 workload shape) must
// produce BYTE-EQUAL trace/metrics exports and fingerprints for any shard count K,
// with and without bandwidth modelling, and through faultsim partition-heal and
// link-perturbation scripts. K is a pure performance knob, never a semantics knob.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/faultsim/fault_injector.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/pubsub/forest.h"
#include "src/sim/sharded_sim.h"

namespace totoro {
namespace {

constexpr size_t kNodes = 48;

// Which fault script (if any) the workload runs against.
enum class Fault {
  kNone,
  kPartition,  // Group cut + heal: deterministic set lookups on the message path.
  kPerturb,    // Probabilistic drop/duplicate/delay-spike: per-(src,dst,seq) Rng draws.
};

struct RunOutput {
  uint64_t events = 0;
  uint64_t total_bytes = 0;
  uint64_t partition_drops = 0;
  uint64_t perturb_drops = 0;
  uint64_t duplicates = 0;
  uint64_t delay_spikes = 0;
  uint64_t connected_topics = 0;
  std::string metrics_json;
  std::string trace_json;
  uint64_t metrics_fp = 0;
  uint64_t trace_fp = 0;
};

// Runs the workload on a FRESH thread so each configuration sees pristine
// thread-local tracer/metrics sinks, exactly like independent processes would.
RunOutput RunWorkload(size_t shards, Fault fault, bool model_bandwidth = false) {
  RunOutput out;
  std::thread runner([&out, shards, fault, model_bandwidth] {
    GlobalTracer().SetEnabled(true);
    ShardedSimulator sim(shards);
    NetworkConfig net_config;
    net_config.model_bandwidth = model_bandwidth;
    Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 3), net_config);
    PastryConfig pastry_config;
    pastry_config.enable_keepalive = true;
    pastry_config.keepalive_interval_ms = 200.0;
    PastryNetwork pastry(&net, pastry_config);
    Rng rng(777);
    pastry.Reserve(kNodes);
    for (size_t i = 0; i < kNodes; ++i) {
      pastry.AddRandomNode(rng);
    }
    pastry.BuildOracle(rng);
    ScribeConfig scribe_config;
    scribe_config.enable_tree_repair = true;
    scribe_config.parent_heartbeat_ms = 250.0;
    Forest forest(&pastry, scribe_config);
    sim.SetLookaheadMs(net.latency_model().MinLatencyMs());
    FaultInjector injector(&pastry, &forest, /*seed=*/42);

    for (size_t i = 0; i < pastry.size(); ++i) {
      pastry.node(i).StartKeepAlive();
    }
    forest.StartMaintenance();

    // Three topics, fig7-style: JOIN fan-out plus steady-state per-tree heartbeats.
    Rng pick(71);
    std::vector<NodeId> topics;
    for (int t = 0; t < 3; ++t) {
      const NodeId topic = forest.CreateTopic("det-" + std::to_string(t));
      std::vector<size_t> members(pastry.size());
      for (size_t i = 0; i < members.size(); ++i) {
        members[i] = i;
      }
      pick.Shuffle(members);
      members.resize(16);
      forest.SubscribeAll(topic, members, /*settle_ms=*/100.0);
      topics.push_back(topic);
    }

    if (fault == Fault::kPartition) {
      // Split the host space down the middle, let keep-alives burn against the cut for
      // a while, then heal and give the repair machinery time to reconverge.
      std::vector<HostId> left;
      std::vector<HostId> right;
      for (HostId h = 0; h < static_cast<HostId>(net.num_hosts()); ++h) {
        (h < net.num_hosts() / 2 ? left : right).push_back(h);
      }
      FaultScript script;
      script.PartitionAt(400.0, left, right).HealAt(1100.0);
      injector.Schedule(script);
    } else if (fault == Fault::kPerturb) {
      // Wildcard probabilistic rule: every message in the window draws drop/duplicate/
      // delay-spike Bernoullis from an Rng keyed by (src, dst, src's send sequence).
      // The spikes reorder traffic, so this exercises the derived-Rng path hard: any
      // draw consumed from a shared stream would diverge the moment K changes.
      LinkPerturbation rule;
      rule.drop_prob = 0.04;
      rule.duplicate_prob = 0.06;
      rule.delay_spike_prob = 0.05;
      rule.delay_spike_ms = 40.0;
      FaultScript script;
      script.PerturbLinksAt(300.0, /*duration_ms=*/1500.0, rule);
      injector.Schedule(script);
    }

    sim.RunUntil(2500.0);

    out.events = sim.events_fired();
    out.total_bytes = net.metrics().total_bytes();
    const FaultInjector::Stats stats = injector.stats();
    out.partition_drops = stats.partition_drops;
    out.perturb_drops = stats.perturb_drops;
    out.duplicates = stats.duplicates;
    out.delay_spikes = stats.delay_spikes;
    for (const NodeId& topic : topics) {
      if (forest.IsFullyConnected(topic)) {
        ++out.connected_topics;
      }
    }
    net.metrics().PublishTo(GlobalMetrics());
    out.metrics_json = MetricsToJson(GlobalMetrics());
    out.trace_json = TraceToChromeJson(GlobalTracer());
    out.metrics_fp = MetricsFingerprint(GlobalMetrics());
    out.trace_fp = TraceFingerprint(GlobalTracer());
  });
  runner.join();
  return out;
}

void ExpectIdentical(const RunOutput& base, const RunOutput& run, size_t k) {
  EXPECT_EQ(run.events, base.events) << "K=" << k;
  EXPECT_EQ(run.total_bytes, base.total_bytes) << "K=" << k;
  EXPECT_EQ(run.partition_drops, base.partition_drops) << "K=" << k;
  EXPECT_EQ(run.perturb_drops, base.perturb_drops) << "K=" << k;
  EXPECT_EQ(run.duplicates, base.duplicates) << "K=" << k;
  EXPECT_EQ(run.delay_spikes, base.delay_spikes) << "K=" << k;
  EXPECT_EQ(run.connected_topics, base.connected_topics) << "K=" << k;
  EXPECT_EQ(run.metrics_fp, base.metrics_fp) << "K=" << k;
  EXPECT_EQ(run.trace_fp, base.trace_fp) << "K=" << k;
  // Fingerprints already imply this, but byte-equality failures print the first
  // diverging region, which is what you want when debugging a determinism break.
  EXPECT_EQ(run.metrics_json, base.metrics_json) << "K=" << k;
  EXPECT_EQ(run.trace_json, base.trace_json) << "K=" << k;
}

TEST(ShardDeterminism, Fig7WorkloadBitIdenticalAtK1248) {
  const RunOutput base = RunWorkload(1, Fault::kNone);
  EXPECT_GT(base.events, 1000u);
  EXPECT_GT(base.total_bytes, 0u);
  EXPECT_EQ(base.connected_topics, 3u);
  for (const size_t k : {size_t{2}, size_t{4}, size_t{8}}) {
    ExpectIdentical(base, RunWorkload(k, Fault::kNone), k);
  }
}

// Bandwidth modelled: rx serialization is booked at arrival, in the destination's
// canonical event order, so NIC backlogs evolve identically for every K.
TEST(ShardDeterminism, Fig7WorkloadWithBandwidthBitIdenticalAtK1248) {
  const RunOutput base = RunWorkload(1, Fault::kNone, /*model_bandwidth=*/true);
  EXPECT_GT(base.events, 1000u);
  EXPECT_EQ(base.connected_topics, 3u);
  for (const size_t k : {size_t{2}, size_t{4}, size_t{8}}) {
    ExpectIdentical(base, RunWorkload(k, Fault::kNone, /*model_bandwidth=*/true), k);
  }
}

TEST(ShardDeterminism, PartitionHealScriptBitIdenticalAtK1248) {
  const RunOutput base = RunWorkload(1, Fault::kPartition);
  EXPECT_GT(base.partition_drops, 0u) << "the partition never cut anything";
  for (const size_t k : {size_t{2}, size_t{4}, size_t{8}}) {
    ExpectIdentical(base, RunWorkload(k, Fault::kPartition), k);
  }
}

TEST(ShardDeterminism, LinkPerturbationScriptBitIdenticalAtK1248) {
  const RunOutput base = RunWorkload(1, Fault::kPerturb);
  // The rule must have actually fired on all three probabilistic paths, or the
  // byte-equality below proves nothing about the derived-Rng message path.
  EXPECT_GT(base.perturb_drops, 0u) << "the rule never dropped anything";
  EXPECT_GT(base.duplicates, 0u) << "the rule never duplicated anything";
  EXPECT_GT(base.delay_spikes, 0u) << "the rule never spiked anything";
  for (const size_t k : {size_t{2}, size_t{4}, size_t{8}}) {
    ExpectIdentical(base, RunWorkload(k, Fault::kPerturb), k);
  }
}

}  // namespace
}  // namespace totoro
