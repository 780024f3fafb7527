// Tests for the coordinator baseline: the centralized star (no edge servers) and the
// client-edge-cloud tree (num_edge_servers > 0).
#include <gtest/gtest.h>

#include "src/baselines/central_engine.h"

namespace totoro {
namespace {

SyntheticSpec Task(uint64_t seed) {
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.seed = seed;
  return spec;
}

FlAppConfig App(const std::string& name, size_t rounds) {
  FlAppConfig config;
  config.name = name;
  config.model_factory = [](uint64_t seed) {
    return MakeSoftmaxRegression("sr", 16, 4, seed);
  };
  config.train.learning_rate = 0.1f;
  config.train.local_steps = 4;
  config.target_accuracy = 2.0;
  config.max_rounds = rounds;
  return config;
}

CentralConfig EdgeServers(size_t count) {
  CentralConfig config;
  config.num_edge_servers = count;
  return config;
}

NodeId Launch(CentralizedEngine& engine, const std::string& name, size_t num_clients,
              size_t rounds, uint64_t seed) {
  SyntheticTask task(Task(seed));
  Rng rng(seed + 1);
  std::vector<size_t> clients;
  std::vector<Dataset> shards;
  for (size_t i = 0; i < num_clients; ++i) {
    clients.push_back(i);
    shards.push_back(task.Generate(80, rng));
  }
  return engine.LaunchApp(App(name, rounds), clients, std::move(shards),
                          task.Generate(200, rng));
}

TEST(CentralizedEngineTest, EdgeServersTrainToGoodAccuracy) {
  Simulator sim;
  CentralizedEngine engine(&sim, EdgeServers(4), 20, 801);
  const NodeId topic = Launch(engine, "hier-a", 16, 8, 802);
  engine.StartAll();
  ASSERT_TRUE(engine.RunToCompletion());
  const auto& result = engine.result(topic);
  EXPECT_EQ(result.rounds_completed, 8u);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(CentralizedEngineTest, EdgeServersMatchStarAccuracy) {
  // The hierarchy changes where averaging happens, not its result: nested weighted
  // averages equal the flat average.
  Simulator sim1;
  CentralizedEngine hier(&sim1, EdgeServers(4), 20, 811);
  Simulator sim2;
  CentralizedEngine central(&sim2, CentralConfig{}, 20, 811);
  const NodeId t1 = Launch(hier, "match", 12, 6, 812);
  const NodeId t2 = Launch(central, "match", 12, 6, 812);
  hier.StartAll();
  central.StartAll();
  ASSERT_TRUE(hier.RunToCompletion());
  ASSERT_TRUE(central.RunToCompletion());
  // Same seeds => identical shards and model inits => identical accuracy trajectories.
  const auto& r1 = hier.result(t1);
  const auto& r2 = central.result(t2);
  ASSERT_EQ(r1.curve.size(), r2.curve.size());
  for (size_t i = 0; i < r1.curve.size(); ++i) {
    EXPECT_NEAR(r1.curve[i].accuracy, r2.curve[i].accuracy, 1e-9);
  }
}

TEST(CentralizedEngineTest, EdgeServersOffloadCloudDownlink) {
  // The cloud receives one update per edge server instead of one per client.
  Simulator sim;
  CentralizedEngine engine(&sim, EdgeServers(4), 24, 821);
  Launch(engine, "offload", 24, 2, 822);
  engine.StartAll();
  ASSERT_TRUE(engine.RunToCompletion());
  const auto& cloud = engine.network().metrics().traffic(0);
  // 2 rounds x 4 edge updates received = 8 gradient messages at the cloud (clients'
  // updates stop at the edges).
  EXPECT_EQ(cloud.msgs_recv, 8u);
}

TEST(CentralizedEngineTest, EdgeServerFailureStallsItsGroup) {
  // The paper's critique of the hierarchical class: an aggregator is a static point of
  // failure — its clients are cut off and the round never completes.
  Simulator sim;
  CentralizedEngine engine(&sim, EdgeServers(4), 16, 831);
  const NodeId topic = Launch(engine, "spof", 16, 4, 832);
  engine.FailEdgeServer(1);
  engine.StartAll();
  EXPECT_FALSE(engine.RunToCompletion(/*max_virtual_ms=*/60000.0));
  EXPECT_EQ(engine.result(topic).rounds_completed, 0u);
}

TEST(CentralizedEngineTest, CompressionPolicyApplies) {
  Simulator sim;
  CentralizedEngine engine(&sim, CentralConfig{}, 20, 841);
  auto config = App("policy", 3);
  config.compression = CompressionConfig{CompressionKind::kTopK, 0.1};
  SyntheticTask task(Task(842));
  Rng rng(843);
  std::vector<size_t> clients;
  std::vector<Dataset> shards;
  for (size_t i = 0; i < 10; ++i) {
    clients.push_back(i);
    shards.push_back(task.Generate(80, rng));
  }
  const NodeId topic =
      engine.LaunchApp(config, clients, std::move(shards), task.Generate(200, rng));
  engine.StartAll();
  ASSERT_TRUE(engine.RunToCompletion());
  EXPECT_EQ(engine.result(topic).rounds_completed, 3u);
  // Compressed gradient traffic: server received far fewer bytes than float32 updates
  // would cost (10 clients x 3 rounds x 68 params x 4B = 8160B uncompressed).
  const auto& server = engine.network().metrics().traffic(0);
  EXPECT_LT(server.bytes_recv, 4000u);
}

TEST(CentralizedEngineDeathTest, RejectsPoliciesItDoesNotImplement) {
  // The baseline runs synchronous FedAvg over every client, so an app asking for any
  // other protocol fails at launch and the message names the field.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto launch = [](const FlAppConfig& config) {
    Simulator sim;
    CentralizedEngine engine(&sim, CentralConfig{}, 4, 851);
    SyntheticTask task(Task(852));
    Rng rng(853);
    std::vector<Dataset> shards;
    shards.push_back(task.Generate(20, rng));
    shards.push_back(task.Generate(20, rng));
    engine.LaunchApp(config, {0, 1}, std::move(shards), task.Generate(20, rng));
  };
  FlAppConfig async = App("async", 1);
  async.async = AsyncConfig{};
  EXPECT_DEATH(launch(async), "config.async");
  FlAppConfig secure = App("secure", 1);
  secure.secure_aggregation = true;
  EXPECT_DEATH(launch(secure), "config.secure_aggregation");
  FlAppConfig robust = App("robust", 1);
  robust.robust.rule = RobustAggregation::kCoordinateMedian;
  EXPECT_DEATH(launch(robust), "config.robust.rule");
  FlAppConfig selecting = App("selecting", 1);
  selecting.participants_per_round = 1;
  EXPECT_DEATH(launch(selecting), "config.participants_per_round");
  launch(App("plain", 1));  // The same launch with none of them set succeeds.
}

}  // namespace
}  // namespace totoro
