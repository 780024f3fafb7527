// Regression tests for the unordered→ordered container fixes behind totoro_lint rule
// R2: protocol state whose iteration order feeds event scheduling (scribe topics_,
// engine apps_/trainers, the baseline's per-edge fan-out) must walk in key order, and
// runs over that state must reproduce byte-identical observability exports — the same
// byte-equal export pattern as compute_pool_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/baselines/central_engine.h"
#include "src/core/engine.h"
#include "src/ml/dataset.h"
#include "src/obs/export.h"
#include "src/pubsub/forest.h"

namespace totoro {
namespace {

// --- Direct walk-order contracts ----------------------------------------------------

TEST(OrderedStateTest, ScribeTopicsIterateInKeyOrder) {
  // Subscribe one overlay to many topics in scrambled insertion order; every node's
  // per-topic walk (Topics() uses the same map MaintenanceTick iterates) must come
  // back sorted by topic key, not by insertion order or hash placement.
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 11), NetworkConfig{});
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(11);
  for (int i = 0; i < 30; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  Forest forest(&pastry, ScribeConfig{});

  std::vector<NodeId> topics;
  for (int t = 0; t < 12; ++t) {
    // Scrambled names so key order differs from creation order.
    topics.push_back(forest.CreateTopic("app-" + std::to_string((t * 7) % 12)));
  }
  for (const NodeId& topic : topics) {
    forest.SubscribeAll(topic, {0, 1, 2, 3, 4, 5, 6, 7}, 0.0);
  }
  size_t nodes_with_many_topics = 0;
  for (size_t i = 0; i < forest.size(); ++i) {
    const std::vector<NodeId> walk = forest.scribe(i).Topics();
    if (walk.size() >= 2) {
      ++nodes_with_many_topics;
    }
    EXPECT_TRUE(std::is_sorted(walk.begin(), walk.end()))
        << "scribe node " << i << " iterates topics out of key order";
  }
  // The contract must actually have been exercised on multi-topic nodes.
  EXPECT_GT(nodes_with_many_topics, 0u);
}

// --- Byte-equal export regression (multi-app engine) --------------------------------

FlAppConfig SmallApp(const std::string& name) {
  FlAppConfig config;
  config.name = name;
  config.model_factory = [](uint64_t seed) {
    return MakeSoftmaxRegression("sr", 8, 3, seed);
  };
  config.train.learning_rate = 0.2f;
  config.train.batch_size = 10;
  config.train.local_steps = 2;
  config.max_rounds = 3;
  return config;
}

struct Artifacts {
  std::string trace;
  std::string metrics;
  std::vector<AppResult> results;
};

// Three concurrent applications over one overlay with tree maintenance running: the
// scheduling paths that iterate apps_ (StartAll, watchdog) and topics_ (maintenance
// heartbeats) all fire. Any hash-order dependence in those walks shows up as a trace
// or metrics byte diff between two identical runs.
Artifacts RunMultiAppWorld() {
  GlobalTracer().Clear();
  GlobalTracer().SetEnabled(true);
  GlobalMetrics().ResetValues();
  Artifacts out;
  {
    Simulator sim;
    Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 5), NetworkConfig{});
    PastryNetwork pastry(&net, PastryConfig{});
    Rng rng(42);
    for (int i = 0; i < 40; ++i) {
      pastry.AddRandomNode(rng);
    }
    pastry.BuildOracle(rng);
    ScribeConfig scribe_config;
    scribe_config.enable_tree_repair = true;
    Forest forest(&pastry, scribe_config);
    TotoroEngine engine(&forest, ComputeModel{}, 43);
    engine.SetSubscribeSettleMs(300.0);
    TotoroEngine::FailoverConfig failover;
    engine.EnableFailover(failover);

    SyntheticSpec spec;
    spec.dim = 8;
    spec.num_classes = 3;
    spec.seed = 7;
    SyntheticTask task(spec);
    Rng data_rng(8);
    std::vector<NodeId> topics;
    for (int a = 0; a < 3; ++a) {
      std::vector<size_t> workers;
      std::vector<Dataset> shards;
      for (size_t w = 0; w < 6; ++w) {
        workers.push_back(a * 6 + static_cast<size_t>(w));
        shards.push_back(task.Generate(40, data_rng));
      }
      topics.push_back(engine.LaunchApp(SmallApp("app-" + std::to_string(a)), workers,
                                        std::move(shards), task.Generate(60, data_rng)));
    }
    forest.StartMaintenance();
    engine.StartAll();
    EXPECT_TRUE(engine.RunToCompletion(120000.0));
    for (const NodeId& topic : topics) {
      out.results.push_back(engine.result(topic));
    }
  }
  out.trace = TraceToChromeJson(GlobalTracer());
  out.metrics = MetricsToJson(GlobalMetrics());
  GlobalTracer().SetEnabled(false);
  GlobalTracer().Clear();
  GlobalMetrics().ResetValues();
  return out;
}

TEST(OrderedStateTest, MultiAppMaintenanceRunExportsAreByteIdentical) {
  const Artifacts a = RunMultiAppWorld();
  const Artifacts b = RunMultiAppWorld();
  EXPECT_EQ(a.trace, b.trace) << "multi-app trace export not reproducible";
  EXPECT_EQ(a.metrics, b.metrics) << "multi-app metrics export not reproducible";
  EXPECT_EQ(FingerprintBytes(a.trace), FingerprintBytes(b.trace));
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].rounds_completed, b.results[i].rounds_completed);
    EXPECT_EQ(a.results[i].final_accuracy, b.results[i].final_accuracy);
    EXPECT_EQ(a.results[i].total_time_ms, b.results[i].total_time_ms);
  }
}

// --- Byte-equal regression for the baseline's per-edge fan-out ----------------------

std::pair<std::string, std::vector<AppResult>> RunEdgeServerWorld() {
  GlobalMetrics().ResetValues();
  Simulator sim;
  CentralConfig config;
  config.num_edge_servers = 4;
  CentralizedEngine engine(&sim, config, 20, 99);

  SyntheticSpec spec;
  spec.dim = 8;
  spec.num_classes = 3;
  spec.seed = 3;
  SyntheticTask task(spec);
  Rng data_rng(4);
  std::vector<size_t> clients;
  std::vector<Dataset> shards;
  for (size_t c = 0; c < 20; ++c) {
    clients.push_back(c);
    shards.push_back(task.Generate(40, data_rng));
  }
  const NodeId topic = engine.LaunchApp(SmallApp("hier"), clients, std::move(shards),
                                        task.Generate(60, data_rng));
  engine.StartAll();
  EXPECT_TRUE(engine.RunToCompletion());
  std::pair<std::string, std::vector<AppResult>> out{MetricsToJson(GlobalMetrics()),
                                                     {engine.result(topic)}};
  GlobalMetrics().ResetValues();
  return out;
}

TEST(OrderedStateTest, EdgeServerFanoutIsReproducible) {
  const auto a = RunEdgeServerWorld();
  const auto b = RunEdgeServerWorld();
  EXPECT_EQ(a.first, b.first) << "edge-server metrics export not reproducible";
  ASSERT_EQ(a.second.size(), b.second.size());
  EXPECT_EQ(a.second[0].final_accuracy, b.second[0].final_accuracy);
  EXPECT_EQ(a.second[0].total_time_ms, b.second[0].total_time_ms);
}

}  // namespace
}  // namespace totoro
