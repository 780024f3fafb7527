// Cross-layer integration tests: Totoro engine vs the centralized baseline on identical
// workloads, and tree-aggregation consistency against flat averaging.
#include <gtest/gtest.h>

#include "src/baselines/central_engine.h"
#include "src/core/engine.h"

namespace totoro {
namespace {

SyntheticSpec Task(uint64_t seed) {
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.class_separation = 2.0;
  spec.noise_stddev = 1.0;
  spec.seed = seed;
  return spec;
}

FlAppConfig App(const std::string& name, size_t max_rounds) {
  FlAppConfig config;
  config.name = name;
  config.model_factory = [](uint64_t seed) {
    return MakeMlp("mlp", 16, 32, 4, seed);
  };
  config.train.learning_rate = 0.1f;
  config.train.batch_size = 20;
  config.train.local_steps = 5;
  config.target_accuracy = 2.0;
  config.max_rounds = max_rounds;
  return config;
}

// Runs `num_apps` concurrent apps on Totoro; returns the max total time.
double RunTotoro(int num_apps, size_t rounds) {
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(2.0, 40.0, 9), NetworkConfig{});
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(200);
  for (int i = 0; i < 120; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  Forest forest(&pastry, ScribeConfig{});
  TotoroEngine engine(&forest, ComputeModel{}, 201);
  Rng data_rng(202);
  std::vector<NodeId> topics;
  for (int a = 0; a < num_apps; ++a) {
    SyntheticTask task(Task(300 + a));
    std::vector<size_t> workers;
    std::vector<Dataset> shards;
    for (size_t i = 0; i < 10; ++i) {
      workers.push_back((a * 10 + i) % 120);
      shards.push_back(task.Generate(80, data_rng));
    }
    topics.push_back(engine.LaunchApp(App("app-" + std::to_string(a), rounds), workers,
                                      std::move(shards), task.Generate(100, data_rng)));
  }
  engine.StartAll();
  EXPECT_TRUE(engine.RunToCompletion());
  double max_time = 0;
  for (const auto& t : topics) {
    max_time = std::max(max_time, engine.result(t).total_time_ms);
  }
  return max_time;
}

double RunCentral(int num_apps, size_t rounds) {
  Simulator sim;
  CentralizedEngine central(&sim, CentralConfig{}, 120, 210);
  Rng data_rng(202);
  std::vector<NodeId> topics;
  for (int a = 0; a < num_apps; ++a) {
    SyntheticTask task(Task(300 + a));
    std::vector<size_t> clients;
    std::vector<Dataset> shards;
    for (size_t i = 0; i < 10; ++i) {
      clients.push_back((a * 10 + i) % 120);
      shards.push_back(task.Generate(80, data_rng));
    }
    topics.push_back(central.LaunchApp(App("app-" + std::to_string(a), rounds), clients,
                                       std::move(shards), task.Generate(100, data_rng)));
  }
  central.StartAll();
  EXPECT_TRUE(central.RunToCompletion());
  double max_time = 0;
  for (const auto& t : topics) {
    max_time = std::max(max_time, central.result(t).total_time_ms);
  }
  return max_time;
}

TEST(TotoroVsCentralTest, TotoroStaysFlatWithAppCount) {
  const double one = RunTotoro(1, 3);
  const double ten = RunTotoro(10, 3);
  // Independent trees: adding applications barely moves the per-app completion time
  // (paper §7.4: 15.41h for 1 model vs 15.47h for 20).
  EXPECT_LT(ten, one * 1.6);
}

TEST(TotoroVsCentralTest, CentralGrowsWithAppCount) {
  const double one = RunCentral(1, 3);
  const double ten = RunCentral(10, 3);
  EXPECT_GT(ten, one * 2.0);
}

TEST(TotoroVsCentralTest, SpeedupGapWidensWithMoreApps) {
  // The Table-3 trend: Totoro's advantage grows as concurrency rises.
  const double speedup_small = RunCentral(2, 2) / RunTotoro(2, 2);
  const double speedup_large = RunCentral(10, 2) / RunTotoro(10, 2);
  EXPECT_GT(speedup_large, speedup_small);
  EXPECT_GT(speedup_large, 1.0);
}

TEST(TreeAggregationConsistencyTest, TreeFedAvgEqualsFlatFedAvg) {
  // Push known weight vectors through a real 60-node tree and compare against a flat
  // FederatedAverage of the same contributions.
  Simulator sim;
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 5.0, 11), net_config);
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(400);
  for (int i = 0; i < 60; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  Forest forest(&pastry, ScribeConfig{});
  for (size_t i = 0; i < forest.size(); ++i) {
    forest.scribe(i).SetCombineFn(MakeFedAvgCombiner());
  }
  const NodeId topic = forest.CreateTopic("consistency");
  std::vector<size_t> all(forest.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  forest.SubscribeAll(topic, all);

  std::vector<WeightedUpdate> flat;
  std::vector<float> tree_result;
  forest.SetOnRootAggregate([&](const NodeId&, uint64_t, const AggregationPiece& total) {
    tree_result = static_cast<const WeightsPayload*>(total.data.get())->weights;
  });
  Rng wrng(401);
  for (size_t i = 0; i < forest.size(); ++i) {
    std::vector<float> w(8);
    for (auto& v : w) {
      v = static_cast<float>(wrng.Gaussian(0.0, 1.0));
    }
    const double weight = 1.0 + static_cast<double>(wrng.NextBelow(5));
    flat.push_back({w, weight});
    auto payload = std::make_shared<WeightsPayload>();
    payload->weights = std::move(w);
    AggregationPiece piece;
    piece.data = std::move(payload);
    piece.weight = weight;
    forest.scribe(i).SubmitUpdate(topic, 1, std::move(piece), 32);
  }
  sim.Run();
  ASSERT_EQ(tree_result.size(), 8u);
  const auto expected = FederatedAverage(flat);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(tree_result[i], expected[i], 2e-4f) << "coordinate " << i;
  }
}

TEST(TotoroVsCentralTest, BothConvergeToSimilarAccuracy) {
  // Same task, same hyperparameters: the two engines differ in *time*, not in final
  // model quality.
  Simulator sim1;
  Network net(&sim1, std::make_unique<PairwiseUniformLatency>(2.0, 20.0, 13), NetworkConfig{});
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(500);
  for (int i = 0; i < 60; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  Forest forest(&pastry, ScribeConfig{});
  TotoroEngine totoro_engine(&forest, ComputeModel{}, 501);

  Simulator sim2;
  CentralizedEngine central(&sim2, CentralConfig{}, 60, 502);

  SyntheticTask task(Task(503));
  Rng data_rng(504);
  std::vector<size_t> nodes;
  std::vector<Dataset> shards1;
  std::vector<Dataset> shards2;
  for (size_t i = 0; i < 12; ++i) {
    nodes.push_back(i);
    Dataset shard = task.Generate(100, data_rng);
    shards1.push_back(shard);
    shards2.push_back(shard);
  }
  const Dataset test = task.Generate(300, data_rng);
  const NodeId t1 =
      totoro_engine.LaunchApp(App("conv", 8), nodes, std::move(shards1), test);
  const NodeId t2 = central.LaunchApp(App("conv", 8), nodes, std::move(shards2), test);
  totoro_engine.StartAll();
  central.StartAll();
  ASSERT_TRUE(totoro_engine.RunToCompletion());
  ASSERT_TRUE(central.RunToCompletion());
  const double acc1 = totoro_engine.result(t1).final_accuracy;
  const double acc2 = central.result(t2).final_accuracy;
  EXPECT_GT(acc1, 0.6);
  EXPECT_GT(acc2, 0.6);
  EXPECT_NEAR(acc1, acc2, 0.12);
}

}  // namespace
}  // namespace totoro
