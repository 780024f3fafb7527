#include <gtest/gtest.h>

#include <set>

#include "src/fl/aggregation.h"
#include "src/fl/secure_agg.h"
#include "src/pubsub/forest.h"

namespace totoro {
namespace {

struct World {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;
  std::unique_ptr<Forest> forest;
  Rng rng{777};

  explicit World(size_t n, ScribeConfig scribe = {}, PastryConfig pastry_config = {},
                 size_t shards = 1)
      : sim(shards) {
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    net = std::make_unique<Network>(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 3),
                                    net_config);
    sim.SetLookaheadMs(net->latency_model().MinLatencyMs());
    pastry = std::make_unique<PastryNetwork>(net.get(), pastry_config);
    for (size_t i = 0; i < n; ++i) {
      pastry->AddRandomNode(rng);
    }
    pastry->BuildOracle(rng);
    forest = std::make_unique<Forest>(pastry.get(), scribe);
  }

  std::vector<size_t> AllNodes() const {
    std::vector<size_t> out(pastry->size());
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = i;
    }
    return out;
  }
};

TEST(ScribeTest, SubscribeBuildsTreeRootedAtRendezvous) {
  World world(100);
  const NodeId topic = world.forest->CreateTopic("app-1");
  world.forest->SubscribeAll(topic, world.AllNodes());

  const size_t root = world.forest->RootOf(topic);
  ASSERT_NE(root, SIZE_MAX);
  // The root is the rendezvous: numerically closest node to the topic.
  EXPECT_EQ(world.pastry->ClosestLiveNode(topic)->id(),
            world.pastry->node(root).id());
  // Exactly one root.
  size_t roots = 0;
  for (size_t i = 0; i < world.forest->size(); ++i) {
    roots += world.forest->scribe(i).IsRoot(topic) ? 1 : 0;
  }
  EXPECT_EQ(roots, 1u);
}

TEST(ScribeTest, AllSubscribersReachableFromRoot) {
  World world(150);
  const NodeId topic = world.forest->CreateTopic("app-2");
  world.forest->SubscribeAll(topic, world.AllNodes());
  const auto stats = world.forest->ComputeStats(topic);
  EXPECT_EQ(stats.num_subscribers, world.forest->size());
  EXPECT_EQ(stats.reachable_from_root, stats.num_members);
  EXPECT_TRUE(stats.all_subscribers_connected);
}

TEST(ScribeTest, TreeDepthLogarithmic) {
  World world(300);
  const NodeId topic = world.forest->CreateTopic("depth-app");
  world.forest->SubscribeAll(topic, world.AllNodes());
  const auto stats = world.forest->ComputeStats(topic);
  // Tree paths follow Pastry routes: depth is O(log_16 N) + slack, never linear.
  EXPECT_LE(stats.depth, 8);
  EXPECT_GE(stats.depth, 1);
}

TEST(ScribeTest, PartialSubscriptionOnlyMembersInTree) {
  World world(100);
  const NodeId topic = world.forest->CreateTopic("partial-app");
  std::vector<size_t> members = {1, 5, 9, 33, 77};
  world.forest->SubscribeAll(topic, members);
  const auto stats = world.forest->ComputeStats(topic);
  EXPECT_EQ(stats.num_subscribers, members.size());
  // Forwarders may be non-subscribers, but membership stays moderate.
  EXPECT_GE(stats.num_members, members.size());
  EXPECT_LE(stats.num_members, 40u);
  EXPECT_TRUE(stats.all_subscribers_connected);
}

// The forest's upcalls serve every node at any shard count. One SetOnBroadcast call
// sees each subscriber exactly once, under the subscriber's own HostId and with the
// root's payload; and one SetCombineFnForTopic call governs every interior hop: each
// node's default combiner passes one child's data through, so a single hop that missed
// the secure-sum combiner would break the unmasked total.
class ForestUpcallTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ForestUpcallTest, OneInstallServesEveryNode) {
  World world(60, ScribeConfig{}, PastryConfig{}, /*shards=*/GetParam());
  const NodeId topic = world.forest->CreateTopic("forest-upcalls");
  std::vector<size_t> members;  // The even hosts.
  for (size_t host = 0; host < world.forest->size(); host += 2) {
    members.push_back(host);
  }
  world.forest->SubscribeAll(topic, members);
  // Each host's slot is written only by the shard that runs the host.
  std::vector<int> deliveries(world.forest->size(), 0);
  world.forest->SetOnBroadcast(
      [&deliveries](HostId host, const NodeId&, uint64_t, const ScribeBroadcast& bc) {
        deliveries[host] += *static_cast<const int*>(bc.data.get());
      });
  world.forest->scribe(world.forest->RootOf(topic))
      .Broadcast(topic, 1, std::make_shared<int>(42), 1000);
  world.sim.Run();
  for (size_t host = 0; host < deliveries.size(); ++host) {
    EXPECT_EQ(deliveries[host], host % 2 == 0 ? 42 : 0) << "host " << host;
  }

  world.forest->SetCombineFnForTopic(topic, MakeSecureSumCombiner());
  SecureAggregationGroup group(std::vector<uint64_t>(members.begin(), members.end()), 9);
  constexpr size_t kDim = 24;
  Rng wrng(10);
  std::vector<WeightedUpdate> plain;
  std::vector<float> root_sum;
  double root_weight = 0.0;
  world.forest->SetOnRootAggregate(
      [&](const NodeId&, uint64_t, const AggregationPiece& total) {
        root_sum = static_cast<const WeightsPayload*>(total.data.get())->weights;
        root_weight = total.weight;
      });
  for (size_t host : members) {
    std::vector<float> w(kDim);
    for (auto& v : w) {
      v = static_cast<float>(wrng.Gaussian());
    }
    const double weight = 1.0 + static_cast<double>(wrng.NextBelow(3));
    plain.push_back({w, weight});
    auto payload = std::make_shared<WeightsPayload>();
    payload->weights = group.MaskUpdate(host, w, weight);
    AggregationPiece piece;
    piece.data = std::move(payload);
    piece.weight = weight;
    world.forest->scribe(host).SubmitUpdate(topic, 1, std::move(piece), kDim * 4);
  }
  world.sim.Run();
  ASSERT_EQ(root_sum.size(), kDim);
  const auto expected = FederatedAverage(plain);
  const auto recovered = FinalizeSecureAverage(root_sum, root_weight);
  for (size_t i = 0; i < kDim; ++i) {
    EXPECT_NEAR(recovered[i], expected[i], 2e-3f);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ForestUpcallTest, ::testing::Values(size_t{1}, size_t{4}));

TEST(ScribeTest, AggregationCountsEveryContribution) {
  World world(80);
  const NodeId topic = world.forest->CreateTopic("agg-app");
  world.forest->SubscribeAll(topic, world.AllNodes());

  bool root_got_total = false;
  world.forest->SetOnRootAggregate(
      [&](const NodeId&, uint64_t round, const AggregationPiece& total) {
        EXPECT_EQ(round, 7u);
        EXPECT_EQ(total.count, world.forest->size());
        EXPECT_DOUBLE_EQ(total.weight, static_cast<double>(world.forest->size()) * 2.0);
        root_got_total = true;
      });
  for (size_t i = 0; i < world.forest->size(); ++i) {
    AggregationPiece piece;
    piece.weight = 2.0;
    piece.count = 1;
    world.forest->scribe(i).SubmitUpdate(topic, 7, std::move(piece), 512);
  }
  world.sim.Run();
  EXPECT_TRUE(root_got_total);
}

TEST(ScribeTest, AggregationCombinerSeesWeights) {
  // Weighted-sum combiner: the root total equals the sum of (weight * value) regardless
  // of the tree shape — associativity of the combine.
  World world(60);
  const NodeId topic = world.forest->CreateTopic("wsum-app");
  world.forest->SubscribeAll(topic, world.AllNodes());

  struct Value {
    double weighted_sum = 0.0;
  };
  world.forest->SetCombineFnForTopic(topic, [](const std::vector<AggregationPiece>& pieces) {
    auto merged = std::make_shared<Value>();
    AggregationPiece out;
    for (const auto& p : pieces) {
      merged->weighted_sum += static_cast<const Value*>(p.data.get())->weighted_sum;
      out.weight += p.weight;
      out.count += p.count;
    }
    out.weight -= 1.0;
    out.count -= 1;
    out.data = std::move(merged);
    return out;
  });
  double root_sum = -1.0;
  world.forest->SetOnRootAggregate(
      [&](const NodeId&, uint64_t, const AggregationPiece& total) {
        root_sum = static_cast<const Value*>(total.data.get())->weighted_sum;
      });
  double expected = 0.0;
  for (size_t i = 0; i < world.forest->size(); ++i) {
    auto v = std::make_shared<Value>();
    v->weighted_sum = static_cast<double>(i) * 1.5;
    expected += v->weighted_sum;
    AggregationPiece piece;
    piece.data = std::move(v);
    piece.weight = 1.0;
    world.forest->scribe(i).SubmitUpdate(topic, 1, std::move(piece), 256);
  }
  world.sim.Run();
  EXPECT_NEAR(root_sum, expected, 1e-9);
}

TEST(ScribeTest, StragglerTimeoutForwardsPartialAggregate) {
  ScribeConfig scribe;
  scribe.aggregation_timeout_ms = 50.0;
  World world(40, scribe);
  const NodeId topic = world.forest->CreateTopic("straggle-app");
  world.forest->SubscribeAll(topic, world.AllNodes());

  uint64_t total_count = 0;
  world.forest->SetOnRootAggregate(
      [&](const NodeId&, uint64_t, const AggregationPiece& total) {
        total_count = total.count;
      });
  // Only half the subscribers ever submit; the timeout must still drive a root total.
  for (size_t i = 0; i < world.forest->size(); i += 2) {
    AggregationPiece piece;
    world.forest->scribe(i).SubmitUpdate(topic, 1, std::move(piece), 64);
  }
  world.sim.Run();
  EXPECT_GT(total_count, 0u);
  EXPECT_LE(total_count, world.forest->size() / 2 + 1);
}

TEST(ScribeTest, StragglerCallbackNamesTheMissingChildren) {
  ScribeConfig scribe;
  scribe.aggregation_timeout_ms = 50.0;
  World world(30, scribe);
  const NodeId topic = world.forest->CreateTopic("straggler-names");
  world.forest->SubscribeAll(topic, world.AllNodes());

  // Pick one leaf subscriber that will never submit; its parent must report it.
  size_t silent = SIZE_MAX;
  for (size_t i = 0; i < world.forest->size(); ++i) {
    if (world.forest->scribe(i).ChildrenOf(topic).empty() &&
        !world.forest->scribe(i).IsRoot(topic)) {
      silent = i;
      break;
    }
  }
  ASSERT_NE(silent, SIZE_MAX);
  const HostId silent_host = world.forest->scribe(silent).host();
  bool reported = false;
  world.forest->SetOnStragglers(
      [&](const NodeId&, uint64_t round, const std::vector<HostId>& missing) {
        EXPECT_EQ(round, 1u);
        for (HostId h : missing) {
          if (h == silent_host) {
            reported = true;
          }
        }
      });
  for (size_t i = 0; i < world.forest->size(); ++i) {
    if (i == silent) {
      continue;
    }
    AggregationPiece piece;
    world.forest->scribe(i).SubmitUpdate(topic, 1, std::move(piece), 64);
  }
  world.sim.Run();
  EXPECT_TRUE(reported);
}

TEST(ScribeTest, MultipleTopicsHaveDistinctRootsAndState) {
  World world(200);
  std::vector<NodeId> topics;
  for (int t = 0; t < 20; ++t) {
    topics.push_back(world.forest->CreateTopic("app-" + std::to_string(t)));
    world.forest->SubscribeAll(topics.back(), world.AllNodes());
  }
  std::set<size_t> roots;
  for (const auto& topic : topics) {
    roots.insert(world.forest->RootOf(topic));
  }
  // Hashed topics land on many distinct rendezvous nodes.
  EXPECT_GE(roots.size(), 15u);
  const auto per_host = world.forest->RootsPerHost(topics);
  size_t max_roots = 0;
  for (const auto& [host, count] : per_host) {
    (void)host;
    max_roots = std::max(max_roots, count);
  }
  EXPECT_LE(max_roots, 3u);  // Load balance: no node roots more than a few trees.
}

TEST(ScribeTest, UnsubscribeLeafPrunesEdge) {
  World world(50);
  const NodeId topic = world.forest->CreateTopic("prune-app");
  std::vector<size_t> members = {2, 3};
  world.forest->SubscribeAll(topic, members);
  // Find a leaf subscriber and its parent.
  const size_t leaf = 2;
  const HostId parent = world.forest->scribe(leaf).ParentOf(topic);
  if (parent == kInvalidHost) {
    GTEST_SKIP() << "node happened to be the root";
  }
  world.forest->scribe(leaf).Unsubscribe(topic);
  world.sim.Run();
  // The parent no longer lists the leaf as a child.
  ASSERT_LT(parent, world.forest->size());
  for (HostId c : world.forest->scribe(parent).ChildrenOf(topic)) {
    EXPECT_NE(c, world.forest->scribe(leaf).host());
  }
}

TEST(ScribeTest, TreeRepairReattachesOrphansAfterParentFailure) {
  ScribeConfig scribe;
  scribe.enable_tree_repair = true;
  scribe.parent_heartbeat_ms = 50.0;
  scribe.parent_timeout_ms = 160.0;
  World world(120, scribe);
  const NodeId topic = world.forest->CreateTopic("repair-app");
  world.forest->SubscribeAll(topic, world.AllNodes());
  world.forest->StartMaintenance();
  world.sim.RunFor(200.0);
  ASSERT_TRUE(world.forest->IsFullyConnected(topic));

  // Kill ~10 internal (non-root) tree members — nodes with children, so their subtrees
  // are actually orphaned.
  const size_t root = world.forest->RootOf(topic);
  size_t killed = 0;
  for (size_t i = 0; i < world.forest->size() && killed < 10; ++i) {
    if (i != root && !world.forest->scribe(i).ChildrenOf(topic).empty()) {
      world.net->SetHostUp(world.forest->scribe(i).host(), false);
      ++killed;
    }
  }
  ASSERT_GT(killed, 0u);
  EXPECT_FALSE(world.forest->IsFullyConnected(topic));
  // Maintenance heartbeats detect dead parents and rejoin within a few periods.
  world.sim.RunFor(5000.0);
  EXPECT_TRUE(world.forest->IsFullyConnected(topic));
}

TEST(ScribeTest, RootFailureElectsNewRendezvous) {
  ScribeConfig scribe;
  scribe.enable_tree_repair = true;
  scribe.parent_heartbeat_ms = 50.0;
  scribe.parent_timeout_ms = 160.0;
  World world(100, scribe);
  const NodeId topic = world.forest->CreateTopic("root-fail-app");
  world.forest->SubscribeAll(topic, world.AllNodes());
  world.forest->StartMaintenance();
  const size_t old_root = world.forest->RootOf(topic);
  world.net->SetHostUp(world.forest->scribe(old_root).host(), false);
  world.sim.RunFor(8000.0);
  const size_t new_root = world.forest->RootOf(topic);
  ASSERT_NE(new_root, SIZE_MAX);
  EXPECT_NE(new_root, old_root);
  // The new root is the rendezvous among live nodes.
  EXPECT_EQ(world.pastry->ClosestLiveNode(topic)->id(), world.pastry->node(new_root).id());
  EXPECT_TRUE(world.forest->IsFullyConnected(topic));
}

TEST(ForestTest, StatsFanoutBoundedByRoutingBase) {
  PastryConfig pastry_config;
  pastry_config.bits_per_digit = 3;  // Fanout 8 trees.
  World world(250, {}, pastry_config);
  const NodeId topic = world.forest->CreateTopic("fanout-app");
  world.forest->SubscribeAll(topic, world.AllNodes());
  const auto stats = world.forest->ComputeStats(topic);
  EXPECT_GT(stats.mean_fanout, 1.0);
  // Children arrive via distinct routing digits plus leaf-set edges; the mean stays in
  // the same ballpark as 2^b.
  EXPECT_LE(stats.mean_fanout, 16.0);
}

}  // namespace
}  // namespace totoro
