// Tests for the extension features: secure aggregation, participant selection inside
// the engine, the asynchronous protocol, semi-synchronous rounds, and the DHT-level
// egress filter (administrative isolation on the wire).
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/engine.h"
#include "src/rings/multi_ring.h"
#include "src/fl/secure_agg.h"
#include "src/rings/two_level_table.h"

namespace totoro {
namespace {

// ---------- Secure aggregation ----------

TEST(SecureAggTest, MasksCancelAcrossAllParticipants) {
  SecureAggregationGroup group({3, 7, 11, 42}, /*group_seed=*/1);
  const size_t dim = 64;
  std::vector<double> sum(dim, 0.0);
  for (uint64_t id : {3ull, 7ull, 11ull, 42ull}) {
    const auto mask = group.MaskFor(id, dim);
    for (size_t i = 0; i < dim; ++i) {
      sum[i] += mask[i];
    }
  }
  for (double v : sum) {
    EXPECT_NEAR(v, 0.0, 1e-9);
  }
}

TEST(SecureAggTest, IndividualMaskIsLarge) {
  // A single masked update must not reveal the plaintext: the mask is O(1) per
  // coordinate, comparable to the data itself.
  SecureAggregationGroup group({1, 2, 3}, 2);
  const auto mask = group.MaskFor(1, 1000);
  double norm_sq = 0.0;
  for (double v : mask) {
    norm_sq += v * v;
  }
  EXPECT_GT(std::sqrt(norm_sq / 1000.0), 0.5);  // RMS per coordinate ~ sqrt(2).
}

TEST(SecureAggTest, MaskedSumRecoversFedAvgExactly) {
  SecureAggregationGroup group({0, 1, 2, 3, 4}, 3);
  const size_t dim = 32;
  Rng rng(4);
  std::vector<WeightedUpdate> plain;
  std::vector<double> masked_sum(dim, 0.0);
  double total_weight = 0.0;
  for (uint64_t id = 0; id < 5; ++id) {
    std::vector<float> w(dim);
    for (auto& v : w) {
      v = static_cast<float>(rng.Gaussian());
    }
    const double weight = 1.0 + static_cast<double>(id);
    plain.push_back({w, weight});
    const auto masked = group.MaskUpdate(id, w, weight);
    for (size_t i = 0; i < dim; ++i) {
      masked_sum[i] += static_cast<double>(masked[i]);
    }
    total_weight += weight;
  }
  const auto expected = FederatedAverage(plain);
  std::vector<float> masked_sum_f(dim);
  for (size_t i = 0; i < dim; ++i) {
    masked_sum_f[i] = static_cast<float>(masked_sum[i]);
  }
  const auto recovered = FinalizeSecureAverage(masked_sum_f, total_weight);
  for (size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(recovered[i], expected[i], 5e-4f);
  }
}

TEST(SecureAggTest, DropoutCorrectionRepairsPartialSum) {
  SecureAggregationGroup group({0, 1, 2, 3}, 5);
  const size_t dim = 16;
  Rng rng(6);
  // Participants 0,1,2 contribute; 3 drops out.
  const std::vector<uint64_t> survivors = {0, 1, 2};
  std::vector<double> masked_sum(dim, 0.0);
  std::vector<WeightedUpdate> plain;
  double total_weight = 0.0;
  for (uint64_t id : survivors) {
    std::vector<float> w(dim, static_cast<float>(id) + 0.5f);
    const double weight = 2.0;
    plain.push_back({w, weight});
    const auto masked = group.MaskUpdate(id, w, weight);
    for (size_t i = 0; i < dim; ++i) {
      masked_sum[i] += static_cast<double>(masked[i]);
    }
    total_weight += weight;
  }
  // Without correction the result is garbage; with it, exact.
  const auto correction = group.DropoutCorrection(survivors, dim);
  std::vector<float> repaired(dim);
  for (size_t i = 0; i < dim; ++i) {
    repaired[i] = static_cast<float>(masked_sum[i] - correction[i]);
  }
  const auto expected = FederatedAverage(plain);
  const auto recovered = FinalizeSecureAverage(repaired, total_weight);
  for (size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(recovered[i], expected[i], 5e-4f);
  }
}

TEST(SecureAggTest, CombinerSkipsNullPiecesAndMergesContributors) {
  // Regression: unselected workers ack a round with data == nullptr (weight 0); the
  // secure-sum combiner used to dereference those. It must skip them, sum the real
  // pieces, and merge contributor lists so the root can identify survivors.
  auto combine = MakeSecureSumCombiner();
  auto make_piece = [](std::vector<float> w, double weight,
                       std::vector<uint64_t> contributors) {
    auto payload = std::make_shared<WeightsPayload>();
    payload->weights = std::move(w);
    payload->contributors = std::move(contributors);
    AggregationPiece p;
    p.data = std::move(payload);
    p.weight = weight;
    p.count = 1;
    return p;
  };
  auto null_ack = [] {
    AggregationPiece p;  // data == nullptr, weight 0: an unselected worker's ack.
    p.data = nullptr;
    p.weight = 0.0;
    return p;
  };
  std::vector<AggregationPiece> pieces;
  pieces.push_back(null_ack());
  pieces.push_back(make_piece({1.0f, 2.0f}, 2.0, {7}));
  pieces.push_back(null_ack());
  pieces.push_back(make_piece({10.0f, 20.0f}, 3.0, {3, 5}));
  const auto total = combine(pieces);
  ASSERT_NE(total.data, nullptr);
  const auto* payload = static_cast<const WeightsPayload*>(total.data.get());
  EXPECT_EQ(payload->weights, (std::vector<float>{11.0f, 22.0f}));
  EXPECT_EQ(payload->contributors, (std::vector<uint64_t>{3, 5, 7}));
  EXPECT_DOUBLE_EQ(total.weight, 5.0);

  // All-null input (every child unselected) must yield a null total, not a crash.
  std::vector<AggregationPiece> nulls;
  for (int i = 0; i < 3; ++i) {
    nulls.push_back(null_ack());
  }
  const auto empty = combine(nulls);
  EXPECT_EQ(empty.data, nullptr);
  EXPECT_DOUBLE_EQ(empty.weight, 0.0);
}

// ---------- Engine extension helpers ----------

struct EngineWorld {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;
  std::unique_ptr<Forest> forest;
  std::unique_ptr<TotoroEngine> engine;
  Rng rng{600};

  explicit EngineWorld(size_t n, ScribeConfig scribe_config = {}) {
    net = std::make_unique<Network>(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 9),
                                    NetworkConfig{});
    pastry = std::make_unique<PastryNetwork>(net.get(), PastryConfig{});
    for (size_t i = 0; i < n; ++i) {
      pastry->AddRandomNode(rng);
    }
    pastry->BuildOracle(rng);
    forest = std::make_unique<Forest>(pastry.get(), scribe_config);
    engine = std::make_unique<TotoroEngine>(forest.get(), ComputeModel{}, 601);
  }
};

FlAppConfig BaseApp(const std::string& name, size_t rounds) {
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

std::pair<std::vector<size_t>, std::vector<Dataset>> MakeWorkload(size_t workers,
                                                                  uint64_t seed) {
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.seed = seed;
  SyntheticTask task(spec);
  Rng rng(seed + 1);
  std::vector<size_t> nodes;
  std::vector<Dataset> shards;
  for (size_t i = 0; i < workers; ++i) {
    nodes.push_back(i);
    shards.push_back(task.Generate(80, rng));
  }
  return {nodes, std::move(shards)};
}

Dataset MakeTest(uint64_t seed) {
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.seed = seed;
  SyntheticTask task(spec);
  Rng rng(seed + 2);
  return task.Generate(200, rng);
}

// ---------- Participant selection ----------

TEST(SelectionIntegrationTest, OnlySelectedWorkersTrainPerRound) {
  EngineWorld world(50);
  auto config = BaseApp("select-app", 4);
  config.participants_per_round = 5;
  config.selection = SelectionPolicy::kRandom;
  auto [workers, shards] = MakeWorkload(20, 700);
  const NodeId topic =
      world.engine->LaunchApp(config, workers, std::move(shards), MakeTest(700));
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion());
  const auto& result = world.engine->result(topic);
  EXPECT_EQ(result.rounds_completed, 4u);
  // Per-round FL work ~ 5 trained workers, not 20: total worker-side work across 4
  // rounds must be well below the all-train case.
  const double work = world.net->metrics().TotalWork(WorkKind::kFlTask);
  EngineWorld full(50);
  auto full_config = BaseApp("select-app-full", 4);
  auto [workers2, shards2] = MakeWorkload(20, 700);
  full.engine->LaunchApp(full_config, workers2, std::move(shards2), MakeTest(700));
  full.engine->StartAll();
  ASSERT_TRUE(full.engine->RunToCompletion());
  const double full_work = full.net->metrics().TotalWork(WorkKind::kFlTask);
  EXPECT_LT(work, full_work * 0.6);
}

TEST(SelectionIntegrationTest, OortSelectionStillConverges) {
  EngineWorld world(50);
  auto config = BaseApp("oort-app", 8);
  config.participants_per_round = 8;
  config.selection = SelectionPolicy::kOortLike;
  auto [workers, shards] = MakeWorkload(20, 710);
  const NodeId topic =
      world.engine->LaunchApp(config, workers, std::move(shards), MakeTest(710));
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion());
  EXPECT_GT(world.engine->result(topic).final_accuracy, 0.6);
}

// ---------- Asynchronous protocol ----------

TEST(AsyncProtocolTest, ConvergesAndRecordsCurve) {
  EngineWorld world(50);
  auto config = BaseApp("async-app", 10);  // 10 re-broadcasts max.
  config.async = AsyncConfig{0.4f, 4};
  auto [workers, shards] = MakeWorkload(12, 720);
  const NodeId topic =
      world.engine->LaunchApp(config, workers, std::move(shards), MakeTest(720));
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion());
  const auto& result = world.engine->result(topic);
  EXPECT_GE(result.curve.size(), 2u);
  EXPECT_GT(result.final_accuracy, 0.5);
}

TEST(AsyncProtocolTest, SlowWorkerDoesNotBlockProgress) {
  // One worker is 100x slower; async evaluation points keep arriving long before it
  // ever reports (a synchronous round would stall on it).
  EngineWorld world(50);
  std::vector<double> speeds(50, 1.0);
  speeds[3] = 0.01;
  world.engine->SetSpeedFactors(speeds);
  auto config = BaseApp("async-straggler", 6);
  config.async = AsyncConfig{0.4f, 4};
  auto [workers, shards] = MakeWorkload(10, 730);
  const NodeId topic =
      world.engine->LaunchApp(config, workers, std::move(shards), MakeTest(730));
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion(1e9));
  EXPECT_GE(world.engine->result(topic).curve.size(), 2u);
}

// ---------- Semi-synchronous rounds ----------

TEST(SemiSyncTest, StragglerCutoffBeatsFullSyncUnderSlowNodes) {
  // Same workload with one 50x-slower worker: semi-sync (aggregation timeout) closes
  // rounds at the cutoff; full sync waits for the straggler every round.
  auto run = [](double timeout_ms) {
    ScribeConfig scribe_config;
    scribe_config.aggregation_timeout_ms = timeout_ms;
    EngineWorld world(40, scribe_config);
    std::vector<double> speeds(40, 1.0);
    speeds[2] = 0.001;
    world.engine->SetSpeedFactors(speeds);
    auto config = BaseApp("semisync", 4);
    // A model large enough that the straggler's compute time dwarfs round latency.
    config.model_factory = [](uint64_t seed) { return MakeMlp("m", 16, 128, 4, seed); };
    auto [workers, shards] = MakeWorkload(10, 740);
    const NodeId topic =
        world.engine->LaunchApp(config, workers, std::move(shards), MakeTest(740));
    world.engine->StartAll();
    EXPECT_TRUE(world.engine->RunToCompletion(1e9));
    return world.engine->result(topic).total_time_ms;
  };
  const double semi_sync = run(120.0);
  const double full_sync = run(0.0);
  EXPECT_LT(semi_sync, full_sync * 0.5);
}

// ---------- Egress filter (administrative isolation on the wire) ----------

TEST(EgressFilterTest, BlocksCrossZonePacketsAtTheBoundary) {
  Simulator sim;
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 5.0, 11), net_config);
  MultiRingConfig ring_config;
  ring_config.zone_bits = 2;
  MultiRing rings(&net, ring_config);
  Rng rng(750);
  for (ZoneId z = 0; z < 2; ++z) {
    for (int i = 0; i < 30; ++i) {
      rings.AddNodeInZone(z, rng);
    }
  }
  rings.Build(rng);
  // Zone-0 administrators install a deny-egress policy on their nodes.
  const auto policy = IsolateZoneBoundaryPolicy(2);
  for (size_t i = 0; i < rings.pastry().size(); ++i) {
    if (rings.zone_of_node(i) == 0) {
      PastryNode& node = rings.pastry().node(i);
      node.SetEgressFilter([&policy](const NodeId& key) { return policy(key, 0); });
    }
    rings.pastry().node(i).SetDeliverHandler(910,
                                             [](const NodeId&, const Message&, int) {});
  }
  int delivered_in_zone1 = 0;
  for (size_t i = 0; i < rings.pastry().size(); ++i) {
    if (rings.zone_of_node(i) == 1) {
      rings.pastry().node(i).SetDeliverHandler(
          910, [&](const NodeId&, const Message&, int) { ++delivered_in_zone1; });
    }
  }
  // A zone-0 node tries to route packets keyed into zone 1: the egress filter drops
  // them at the source.
  const auto zone0_nodes = rings.NodesInZone(0);
  for (int t = 0; t < 10; ++t) {
    Message m;
    m.type = 910;
    rings.pastry().node(zone0_nodes[0]).Route(RandomZonedId(1, 2, rng), std::move(m));
  }
  sim.Run();
  EXPECT_EQ(delivered_in_zone1, 0);
  EXPECT_GE(net.metrics().dropped_messages(), 10u);
  // Intra-zone traffic still flows.
  int delivered_in_zone0 = 0;
  for (size_t i = 0; i < rings.pastry().size(); ++i) {
    if (rings.zone_of_node(i) == 0) {
      rings.pastry().node(i).SetDeliverHandler(
          910, [&](const NodeId&, const Message&, int) { ++delivered_in_zone0; });
    }
  }
  for (int t = 0; t < 10; ++t) {
    Message m;
    m.type = 910;
    rings.pastry().node(zone0_nodes[0]).Route(RandomZonedId(0, 2, rng), std::move(m));
  }
  sim.Run();
  EXPECT_EQ(delivered_in_zone0, 10);
}

}  // namespace
}  // namespace totoro
