// Property-style tests of the pub/sub forest, swept over overlay sizes, routing bases,
// subscriber counts and seeds.
//
// Invariants per (N, b, subscribers, seed):
//   - exactly one root, and it is the rendezvous node of the topic
//   - the tree is acyclic and every subscriber is reachable from the root
//   - broadcast delivers to every subscriber exactly once
//   - up-tree aggregation conserves both count and total weight for any tree shape
//   - tree depth respects the ceil(log_{2^b} N) + slack routing bound
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include "src/faultsim/fault_injector.h"
#include "src/faultsim/fault_script.h"
#include "src/faultsim/invariant_checker.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/pubsub/forest.h"

namespace totoro {
namespace {

struct ForestParams {
  size_t n;
  int bits;
  size_t subscribers;  // 0 = everyone.
  uint64_t seed;
};

void PrintTo(const ForestParams& p, std::ostream* os) {
  *os << "N=" << p.n << " b=" << p.bits << " subs=" << p.subscribers << " seed=" << p.seed;
}

class ForestPropertyTest : public ::testing::TestWithParam<ForestParams> {
 protected:
  void SetUp() override {
    const auto p = GetParam();
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    net_ = std::make_unique<Network>(
        &sim_, std::make_unique<PairwiseUniformLatency>(1.0, 15.0, p.seed), net_config);
    PastryConfig pastry_config;
    pastry_config.bits_per_digit = p.bits;
    pastry_ = std::make_unique<PastryNetwork>(net_.get(), pastry_config);
    Rng rng(p.seed);
    for (size_t i = 0; i < p.n; ++i) {
      pastry_->AddRandomNode(rng);
    }
    pastry_->BuildOracle(rng);
    forest_ = std::make_unique<Forest>(pastry_.get(), ScribeConfig{});

    topic_ = forest_->CreateTopic("prop-" + std::to_string(p.seed));
    members_.clear();
    if (p.subscribers == 0 || p.subscribers >= p.n) {
      for (size_t i = 0; i < p.n; ++i) {
        members_.push_back(i);
      }
    } else {
      std::vector<size_t> all(p.n);
      for (size_t i = 0; i < p.n; ++i) {
        all[i] = i;
      }
      Rng pick(p.seed + 1);
      pick.Shuffle(all);
      members_.assign(all.begin(), all.begin() + static_cast<long>(p.subscribers));
    }
    forest_->SubscribeAll(topic_, members_);
  }

  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<PastryNetwork> pastry_;
  std::unique_ptr<Forest> forest_;
  NodeId topic_;
  std::vector<size_t> members_;
};

TEST_P(ForestPropertyTest, ExactlyOneRootAtTheRendezvous) {
  size_t roots = 0;
  for (size_t i = 0; i < forest_->size(); ++i) {
    if (forest_->scribe(i).IsRoot(topic_)) {
      ++roots;
    }
  }
  EXPECT_EQ(roots, 1u);
  const size_t root = forest_->RootOf(topic_);
  EXPECT_EQ(pastry_->node(root).id(), pastry_->ClosestLiveNode(topic_)->id());
}

TEST_P(ForestPropertyTest, TreeIsAcyclicAndCoversAllSubscribers) {
  const auto stats = forest_->ComputeStats(topic_);
  EXPECT_TRUE(stats.all_subscribers_connected);
  EXPECT_EQ(stats.num_subscribers, members_.size());
  // Acyclicity: BFS reach from the root covers every member exactly once (reachable ==
  // member count implies no node appears via two parents).
  EXPECT_EQ(stats.reachable_from_root, stats.num_members);
  // Depth respects the routing bound.
  const auto p = GetParam();
  const int bound =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(p.n)) / p.bits)) + 2;
  EXPECT_LE(stats.depth, bound);
}

TEST_P(ForestPropertyTest, BroadcastDeliversToEverySubscriberExactlyOnce) {
  std::unordered_map<size_t, int> deliveries;
  forest_->SetOnBroadcast(
      [&deliveries](HostId host, const NodeId&, uint64_t, const ScribeBroadcast&) {
        ++deliveries[host];
      });
  const size_t root = forest_->RootOf(topic_);
  forest_->scribe(root).Broadcast(topic_, 1, std::make_shared<int>(1), 4096);
  sim_.Run();
  EXPECT_EQ(deliveries.size(), members_.size());
  for (size_t member : members_) {
    EXPECT_EQ(deliveries[member], 1) << "member " << member;
  }
}

TEST_P(ForestPropertyTest, AggregationConservesWeightAndCount) {
  double total_weight = -1.0;
  uint64_t total_count = 0;
  forest_->SetOnRootAggregate(
      [&](const NodeId&, uint64_t, const AggregationPiece& total) {
        total_weight = total.weight;
        total_count = total.count;
      });
  Rng rng(GetParam().seed + 2);
  double expected_weight = 0.0;
  for (size_t member : members_) {
    AggregationPiece piece;
    piece.weight = rng.Uniform(0.5, 5.0);
    expected_weight += piece.weight;
    forest_->scribe(member).SubmitUpdate(topic_, 1, std::move(piece), 128);
  }
  sim_.Run();
  EXPECT_EQ(total_count, members_.size());
  EXPECT_NEAR(total_weight, expected_weight, 1e-6);
}

TEST_P(ForestPropertyTest, SecondRoundReusesTheSameTree) {
  // Round state is per-round: a second aggregation on the same tree works and the tree
  // structure (parents/children) is unchanged.
  std::vector<HostId> parents_before;
  for (size_t member : members_) {
    parents_before.push_back(forest_->scribe(member).ParentOf(topic_));
  }
  int root_totals = 0;
  forest_->SetOnRootAggregate(
      [&](const NodeId&, uint64_t, const AggregationPiece&) { ++root_totals; });
  for (uint64_t round = 1; round <= 2; ++round) {
    for (size_t member : members_) {
      AggregationPiece piece;
      forest_->scribe(member).SubmitUpdate(topic_, round, std::move(piece), 64);
    }
    sim_.Run();
  }
  EXPECT_EQ(root_totals, 2);
  for (size_t i = 0; i < members_.size(); ++i) {
    EXPECT_EQ(forest_->scribe(members_[i]).ParentOf(topic_), parents_before[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ForestPropertyTest,
    ::testing::Values(ForestParams{40, 4, 0, 1}, ForestParams{120, 4, 0, 2},
                      ForestParams{120, 3, 40, 3}, ForestParams{250, 5, 0, 4},
                      ForestParams{250, 2, 60, 5}, ForestParams{500, 4, 100, 6},
                      ForestParams{500, 3, 0, 7}, ForestParams{60, 4, 5, 8}));

// ---------- Repair sweep ----------

class RepairSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepairSweepTest, TreesReconnectAfterRandomInternalFailures) {
  Simulator sim;
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, GetParam()),
              net_config);
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(GetParam());
  for (int i = 0; i < 150; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 50.0;
  scribe_config.parent_timeout_ms = 170.0;
  Forest forest(&pastry, scribe_config);
  const NodeId topic = forest.CreateTopic("repair-" + std::to_string(GetParam()));
  std::vector<size_t> all(forest.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  forest.SubscribeAll(topic, all);
  forest.StartMaintenance();
  sim.RunFor(300.0);
  ASSERT_TRUE(forest.IsFullyConnected(topic));

  // Kill random internal nodes (nodes with children), sparing the root.
  const size_t root = forest.RootOf(topic);
  size_t killed = 0;
  for (size_t i = 0; i < forest.size() && killed < 8; ++i) {
    if (i != root && !forest.scribe(i).ChildrenOf(topic).empty() && rng.Bernoulli(0.5)) {
      net.SetHostUp(forest.scribe(i).host(), false);
      ++killed;
    }
  }
  ASSERT_GT(killed, 0u);
  sim.RunFor(6000.0);
  EXPECT_TRUE(forest.IsFullyConnected(topic));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairSweepTest, ::testing::Range<uint64_t>(80, 88));

// ---------- Randomized fault-script sweep ----------

struct FaultTrialOutcome {
  size_t violations = 0;
  bool connected = false;
  uint64_t faults_applied = 0;
  std::string trace_json;
  std::string metrics_json;
};

// Builds a full-recovery world (keep-alives, suspect probes, tree repair, JOIN
// retries), runs a random-but-seeded fault script against it, and checks every
// invariant after the convergence tail. Observability exports come back so callers can
// compare replays byte-for-byte.
FaultTrialOutcome RunRandomFaultTrial(uint64_t seed) {
  GlobalTracer().Clear();
  GlobalTracer().SetEnabled(true);
  GlobalMetrics().ResetValues();
  FaultTrialOutcome out;
  {
    Simulator sim;
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, seed), net_config);
    PastryConfig pastry_config;
    pastry_config.enable_keepalive = true;
    pastry_config.keepalive_interval_ms = 200.0;
    pastry_config.keepalive_timeout_ms = 700.0;
    PastryNetwork pastry(&net, pastry_config);
    Rng rng(seed);
    const size_t n = 50;
    for (size_t i = 0; i < n; ++i) {
      pastry.AddRandomNode(rng);
    }
    pastry.BuildOracle(rng);
    for (size_t i = 0; i < pastry.size(); ++i) {
      pastry.node(i).StartKeepAlive();
    }
    ScribeConfig scribe_config;
    scribe_config.enable_tree_repair = true;
    scribe_config.parent_heartbeat_ms = 100.0;
    scribe_config.parent_timeout_ms = 350.0;
    scribe_config.join_retry_ms = 400.0;
    Forest forest(&pastry, scribe_config);
    const NodeId topic = forest.CreateTopic("fault-sweep-" + std::to_string(seed));
    std::vector<size_t> members(n);
    for (size_t i = 0; i < n; ++i) {
      members[i] = i;
    }
    forest.SubscribeAll(topic, members, /*settle_ms=*/1500.0);
    forest.StartMaintenance();

    FaultInjector injector(&pastry, &forest, seed + 1);
    InvariantCheckerConfig checker_config;
    checker_config.convergence_grace_ms = 9000.0;
    InvariantChecker checker(&pastry, &forest, checker_config);
    checker.WatchTopic(topic);
    checker.SetFaultInjector(&injector);
    checker.Start();

    Rng script_rng(seed + 2);
    const double duration = 20000.0;
    const FaultScript script = GenerateRandomFaultScript(script_rng, n, duration);
    injector.Schedule(script);
    // The script confines faults to the first 60%; run it plus a convergence tail long
    // enough for ring re-merge and tree re-rooting.
    sim.RunFor(duration + 10000.0);
    checker.CheckConverged();
    checker.Stop();

    out.violations = checker.violations().size();
    if (!checker.violations().empty()) {
      ADD_FAILURE() << "first violation: " << checker.violations()[0].invariant << " ("
                    << checker.violations()[0].detail << ") at t="
                    << checker.violations()[0].at;
    }
    out.connected = forest.IsFullyConnected(topic);
    out.faults_applied = injector.stats().crashes + injector.stats().graceful_leaves +
                         injector.stats().partitions + injector.stats().rejoins;
  }
  out.trace_json = TraceToChromeJson(GlobalTracer());
  out.metrics_json = MetricsToJson(GlobalMetrics());
  GlobalTracer().SetEnabled(false);
  GlobalTracer().Clear();
  GlobalMetrics().ResetValues();
  return out;
}

class FaultScriptSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultScriptSweepTest, InvariantsHoldAndReplayIsBitIdentical) {
  const FaultTrialOutcome a = RunRandomFaultTrial(GetParam());
  EXPECT_EQ(a.violations, 0u);
  EXPECT_TRUE(a.connected);
  const FaultTrialOutcome b = RunRandomFaultTrial(GetParam());
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_EQ(a.trace_json, b.trace_json) << "trace export differs between replays";
  EXPECT_EQ(a.metrics_json, b.metrics_json) << "metrics export differs between replays";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScriptSweepTest, ::testing::Range<uint64_t>(140, 143));

}  // namespace
}  // namespace totoro
