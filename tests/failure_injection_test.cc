// Failure-injection tests: message loss, mid-training churn, master failure, and
// combined fault loads. The engine must either keep converging or degrade gracefully —
// never wedge or corrupt results.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/core/engine.h"
#include "src/faultsim/fault_injector.h"
#include "src/faultsim/fault_script.h"
#include "src/faultsim/invariant_checker.h"
#include "src/obs/metrics_registry.h"
#include "src/pubsub/forest.h"

namespace totoro {
namespace {

struct FaultWorld {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;
  std::unique_ptr<Forest> forest;
  std::unique_ptr<TotoroEngine> engine;
  Rng rng{900};

  explicit FaultWorld(size_t n, ScribeConfig scribe_config) {
    net = std::make_unique<Network>(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 15.0, 13),
                                    NetworkConfig{});
    pastry = std::make_unique<PastryNetwork>(net.get(), PastryConfig{});
    for (size_t i = 0; i < n; ++i) {
      pastry->AddRandomNode(rng);
    }
    pastry->BuildOracle(rng);
    forest = std::make_unique<Forest>(pastry.get(), scribe_config);
    engine = std::make_unique<TotoroEngine>(forest.get(), ComputeModel{}, 901);
  }

  NodeId LaunchApp(size_t workers, size_t rounds, uint64_t seed) {
    SyntheticSpec spec;
    spec.dim = 16;
    spec.num_classes = 4;
    spec.seed = seed;
    SyntheticTask task(spec);
    Rng data_rng(seed + 1);
    FlAppConfig config;
    config.name = "fault-app-" + std::to_string(seed);
    config.model_factory = [](uint64_t s) { return MakeSoftmaxRegression("sr", 16, 4, s); };
    config.train.learning_rate = 0.1f;
    config.target_accuracy = 2.0;
    config.max_rounds = rounds;
    std::vector<size_t> nodes;
    std::vector<Dataset> shards;
    for (size_t i = 0; i < workers; ++i) {
      nodes.push_back(i);
      shards.push_back(task.Generate(80, data_rng));
    }
    return engine->LaunchApp(config, nodes, std::move(shards), task.Generate(200, data_rng));
  }
};

TEST(FaultInjectionTest, RandomMessageLossWithTimeoutsStillFinishes) {
  // 10% of all messages vanish; the straggler cut-off turns losses into partial rounds
  // instead of deadlocks.
  ScribeConfig scribe_config;
  scribe_config.aggregation_timeout_ms = 300.0;
  FaultWorld world(60, scribe_config);
  const NodeId topic = world.LaunchApp(15, 5, 910);
  Rng loss_rng(911);
  world.net->SetFaultFn([&loss_rng](const Message&, FaultAction* action) {
    action->drop = loss_rng.Bernoulli(0.10);
    return action->drop;
  });
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion(1e8));
  const auto& result = world.engine->result(topic);
  EXPECT_EQ(result.rounds_completed, 5u);
  EXPECT_GT(result.final_accuracy, 0.3);  // Still learns from partial rounds.
}

TEST(FaultInjectionTest, HeavyLossDegradesButNeverWedges) {
  ScribeConfig scribe_config;
  scribe_config.aggregation_timeout_ms = 200.0;
  FaultWorld world(50, scribe_config);
  world.LaunchApp(12, 4, 920);
  Rng loss_rng(921);
  world.net->SetFaultFn([&loss_rng](const Message&, FaultAction* action) {
    action->drop = loss_rng.Bernoulli(0.35);
    return action->drop;
  });
  world.engine->StartAll();
  // Completion is not guaranteed at 35% loss (a whole round's broadcast can die), but
  // the simulation must terminate rather than spin.
  world.engine->RunToCompletion(1e8);
  SUCCEED();
}

TEST(FaultInjectionTest, WorkerChurnMidTrainingWithRepairConverges) {
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 50.0;
  scribe_config.parent_timeout_ms = 170.0;
  scribe_config.aggregation_timeout_ms = 400.0;
  FaultWorld world(80, scribe_config);
  const NodeId topic = world.LaunchApp(20, 8, 930);
  world.forest->StartMaintenance();
  world.engine->StartAll();
  // Kill 6 random non-master nodes after some progress.
  world.sim.RunFor(1500.0);
  const size_t master = world.forest->RootOf(topic);
  Rng fail_rng(931);
  size_t killed = 0;
  while (killed < 6) {
    const size_t victim = fail_rng.NextBelow(world.pastry->size());
    if (victim != master && world.pastry->node(victim).alive()) {
      world.net->SetHostUp(world.pastry->node(victim).host(), false);
      ++killed;
    }
  }
  ASSERT_TRUE(world.engine->RunToCompletion(1e8));
  const auto& result = world.engine->result(topic);
  EXPECT_EQ(result.rounds_completed, 8u);
  EXPECT_GT(result.final_accuracy, 0.5);
  // Training can outrun repair (partial rounds close on the timeout); give the
  // maintenance loop a moment to finish re-attaching the last orphans.
  world.sim.RunFor(5000.0);
  EXPECT_TRUE(world.forest->IsFullyConnected(topic));
}

TEST(FaultInjectionTest, MasterFailureFailsOverAndTrainingCompletes) {
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 50.0;
  scribe_config.parent_timeout_ms = 170.0;
  scribe_config.aggregation_timeout_ms = 500.0;
  FaultWorld world(80, scribe_config);
  const NodeId topic = world.LaunchApp(20, 10, 940);
  world.forest->StartMaintenance();
  TotoroEngine::FailoverConfig failover;
  failover.watchdog_interval_ms = 200.0;
  failover.stall_timeout_ms = 1500.0;
  world.engine->EnableFailover(failover);
  world.engine->StartAll();
  world.sim.RunFor(1000.0);
  const size_t old_master = world.forest->RootOf(topic);
  world.net->SetHostUp(world.forest->scribe(old_master).host(), false);
  world.sim.RunFor(8000.0);
  // The overlay elects the next rendezvous node as the new tree root...
  const size_t new_master = world.forest->RootOf(topic);
  ASSERT_NE(new_master, SIZE_MAX);
  EXPECT_NE(new_master, old_master);
  EXPECT_TRUE(world.forest->IsFullyConnected(topic));
  // ...and the watchdog resumes training there from the replicated checkpoint, all the
  // way to completion.
  ASSERT_TRUE(world.engine->RunToCompletion(1e8));
  const auto& result = world.engine->result(topic);
  EXPECT_EQ(result.rounds_completed, result.curve.back().round);
  EXPECT_GE(result.rounds_completed, 10u);
  EXPECT_GT(result.final_accuracy, 0.5);
}

TEST(FaultInjectionTest, CrashDuringJoinStillBuildsTheTree) {
  // The rendezvous node dies while JOINs toward it are still in flight. JOIN retries
  // plus tree repair must land every subscriber in the successor's tree.
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 50.0;
  scribe_config.parent_timeout_ms = 170.0;
  scribe_config.join_retry_ms = 300.0;
  FaultWorld world(60, scribe_config);
  const NodeId topic = world.forest->CreateTopic("crash-during-join");
  const HostId doomed = world.pastry->ClosestLiveNode(topic)->host();
  for (size_t i = 0; i < 20; ++i) {
    world.forest->scribe(i).Subscribe(topic);
  }
  world.sim.RunFor(5.0);  // JOINs are mid-route; many have not reached the rendezvous.
  world.net->SetHostUp(doomed, false);
  world.forest->StartMaintenance();
  world.sim.RunFor(10000.0);
  const size_t root = world.forest->RootOf(topic);
  ASSERT_NE(root, SIZE_MAX);
  EXPECT_NE(world.forest->scribe(root).host(), doomed);
  EXPECT_EQ(world.forest->scribe(root).pastry().id(),
            world.pastry->ClosestLiveNode(topic)->id());
  EXPECT_TRUE(world.forest->IsFullyConnected(topic));
}

TEST(FaultInjectionTest, GracefulLeaveOfInternalParentRehomesItsSubtree) {
  // A node that is the parent of a non-empty subtree leaves gracefully (Scribe detach
  // first, then host down). Its children must re-graft and keep receiving broadcasts.
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 50.0;
  scribe_config.parent_timeout_ms = 170.0;
  scribe_config.join_retry_ms = 300.0;
  FaultWorld world(80, scribe_config);
  const NodeId topic = world.forest->CreateTopic("leave-internal");
  std::vector<size_t> members(world.forest->size());
  for (size_t i = 0; i < members.size(); ++i) {
    members[i] = i;
  }
  world.forest->SubscribeAll(topic, members);
  world.forest->StartMaintenance();
  world.sim.RunFor(300.0);
  const size_t root = world.forest->RootOf(topic);
  size_t leaver = SIZE_MAX;
  for (size_t i = 0; i < world.forest->size(); ++i) {
    if (i != root && !world.forest->scribe(i).ChildrenOf(topic).empty()) {
      leaver = i;
      break;
    }
  }
  ASSERT_NE(leaver, SIZE_MAX) << "no internal non-root node to leave";
  ASSERT_FALSE(world.forest->scribe(leaver).ChildrenOf(topic).empty());

  FaultInjector injector(world.pastry.get(), world.forest.get(), 960);
  FaultEvent leave;
  leave.kind = FaultKind::kGracefulLeave;
  leave.host = world.forest->scribe(leaver).host();
  injector.ApplyNow(leave);
  world.sim.RunFor(6000.0);
  EXPECT_TRUE(world.forest->IsFullyConnected(topic));

  // Every live subscriber still receives broadcasts exactly once.
  std::unordered_map<size_t, int> deliveries;
  for (size_t i = 0; i < world.forest->size(); ++i) {
    world.forest->scribe(i).SetOnBroadcast(
        [&deliveries, i](const NodeId&, uint64_t, const ScribeBroadcast&) {
          ++deliveries[i];
        });
  }
  world.forest->scribe(world.forest->RootOf(topic)).Broadcast(topic, 1, nullptr, 64);
  world.sim.RunFor(2000.0);
  for (size_t member : members) {
    if (member == leaver) {
      continue;
    }
    EXPECT_EQ(deliveries[member], 1) << "member " << member;
  }
  EXPECT_EQ(deliveries.count(leaver), 0u) << "the departed node still got the broadcast";
}

TEST(FaultInjectionTest, SimultaneousRootAndChildFailureRecovers) {
  // The root and one of its direct children die in the same instant: the tree loses
  // both its rendezvous and an internal branch at once. Repair must elect the new
  // rendezvous and re-home the dead child's subtree in one pass.
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 50.0;
  scribe_config.parent_timeout_ms = 170.0;
  scribe_config.join_retry_ms = 300.0;
  FaultWorld world(80, scribe_config);
  const NodeId topic = world.forest->CreateTopic("root-and-child");
  std::vector<size_t> members(world.forest->size());
  for (size_t i = 0; i < members.size(); ++i) {
    members[i] = i;
  }
  world.forest->SubscribeAll(topic, members);
  world.forest->StartMaintenance();
  world.sim.RunFor(300.0);
  const size_t root = world.forest->RootOf(topic);
  const auto root_children = world.forest->scribe(root).ChildrenOf(topic);
  ASSERT_FALSE(root_children.empty());
  // Prefer a child that itself has children, so a whole subtree gets orphaned.
  HostId child_host = root_children.front();
  for (size_t i = 0; i < world.forest->size(); ++i) {
    const ScribeNode& s = world.forest->scribe(i);
    if (s.ParentOf(topic) == world.forest->scribe(root).host() &&
        !s.ChildrenOf(topic).empty()) {
      child_host = s.host();
      break;
    }
  }

  FaultInjector injector(world.pastry.get(), world.forest.get(), 970);
  FaultScript script;
  script.CrashAt(0.0, world.forest->scribe(root).host()).CrashAt(0.0, child_host);
  injector.Schedule(script);
  world.sim.RunFor(10000.0);
  EXPECT_EQ(injector.stats().crashes, 2u);

  const size_t new_root = world.forest->RootOf(topic);
  ASSERT_NE(new_root, SIZE_MAX);
  EXPECT_NE(new_root, root);
  EXPECT_EQ(world.forest->scribe(new_root).pastry().id(),
            world.pastry->ClosestLiveNode(topic)->id());
  EXPECT_TRUE(world.forest->IsFullyConnected(topic));
}

TEST(FaultInjectionTest, AttackerCrashMidRoundUnderSecureAggDropoutCorrects) {
  // A scripted attacker host crashes mid-round inside a secure-aggregation app. Two
  // things must hold: the poisoning interceptor never fires (rewriting a pairwise-
  // masked update would corrupt mask cancellation, so the engine skips it for secure
  // apps), and the root's dropout correction absorbs the dead cohort member without
  // double-counting — audited by the invariant checker on every root aggregate.
  GlobalMetrics().ResetValues();
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 50.0;
  scribe_config.parent_timeout_ms = 170.0;
  scribe_config.aggregation_timeout_ms = 400.0;
  FaultWorld world(60, scribe_config);
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.seed = 980;
  SyntheticTask task(spec);
  Rng data_rng(981);
  FlAppConfig config;
  config.name = "secure-under-attack";
  config.model_factory = [](uint64_t s) { return MakeSoftmaxRegression("sr", 16, 4, s); };
  config.train.learning_rate = 0.1f;
  config.target_accuracy = 2.0;
  config.max_rounds = 8;
  config.secure_aggregation = true;
  std::vector<size_t> nodes;
  std::vector<Dataset> shards;
  for (size_t i = 0; i < 12; ++i) {
    nodes.push_back(i);
    shards.push_back(task.Generate(80, data_rng));
  }
  const NodeId topic =
      world.engine->LaunchApp(config, nodes, std::move(shards), task.Generate(200, data_rng));

  FaultInjector injector(world.pastry.get(), world.forest.get(), 982);
  world.engine->SetUpdateInterceptor(
      [&](const NodeId&, uint64_t round, size_t node_index, std::span<const float> reference,
          std::vector<float>& weights, double& sample_weight) {
        return injector.PoisonUpdate(round, world.forest->scribe(node_index).host(),
                                     reference, weights, sample_weight);
      });
  const HostId attacker = world.forest->scribe(3).host();
  FaultScript script;
  script.SignFlipAt(0.0, 1e9, {attacker}, 4.0);
  // Rounds on this substrate take ~30 virtual ms; 100 ms lands mid-training with the
  // attacker's submission for the current round potentially already in flight.
  script.CrashAt(100.0, attacker);
  injector.Schedule(script);

  InvariantChecker checker(world.pastry.get(), world.forest.get());
  checker.WatchTopic(topic);
  checker.SetFaultInjector(&injector);
  checker.Start();

  world.forest->StartMaintenance();
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion(1e8));
  checker.Stop();
  const auto& result = world.engine->result(topic);
  EXPECT_EQ(result.rounds_completed, 8u);
  EXPECT_GT(result.final_accuracy, 0.5);
  EXPECT_EQ(injector.stats().crashes, 1u);
  // Secure apps bypass the interceptor entirely.
  EXPECT_EQ(injector.stats().poisoned_updates, 0u);
  // The crashed cohort member was corrected out at the root at least once.
  EXPECT_GT(GlobalMetrics().GetCounter("engine.secure.dropout_corrections").value(), 0u);
  for (const InvariantViolation& v : checker.violations()) {
    ADD_FAILURE() << v.invariant << " at " << v.at << ": " << v.detail;
  }
}

TEST(FaultInjectionTest, ConcurrentAppsIsolateFaults) {
  // Killing one app's master must not disturb a disjoint app's training.
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 50.0;
  scribe_config.parent_timeout_ms = 170.0;
  scribe_config.aggregation_timeout_ms = 400.0;
  FaultWorld world(100, scribe_config);
  const NodeId victim_topic = world.LaunchApp(10, 40, 950);
  // The healthy app uses a different worker range so the two cohorts are disjoint.
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.seed = 951;
  SyntheticTask task(spec);
  Rng data_rng(952);
  FlAppConfig config;
  config.name = "healthy-app";
  config.model_factory = [](uint64_t s) { return MakeSoftmaxRegression("sr", 16, 4, s); };
  config.train.learning_rate = 0.1f;
  config.target_accuracy = 2.0;
  config.max_rounds = 6;
  std::vector<size_t> nodes;
  std::vector<Dataset> shards;
  for (size_t i = 40; i < 52; ++i) {
    nodes.push_back(i);
    shards.push_back(task.Generate(80, data_rng));
  }
  const NodeId healthy_topic =
      world.engine->LaunchApp(config, nodes, std::move(shards), task.Generate(200, data_rng));

  world.forest->StartMaintenance();
  world.engine->StartAll();
  world.sim.RunFor(500.0);
  const size_t victim_master = world.forest->RootOf(victim_topic);
  const size_t healthy_master = world.forest->RootOf(healthy_topic);
  if (victim_master == healthy_master) {
    GTEST_SKIP() << "hashed rendezvous nodes collided; nothing to isolate";
  }
  world.net->SetHostUp(world.forest->scribe(victim_master).host(), false);
  world.sim.RunFor(200000.0);
  const auto& healthy = world.engine->result(healthy_topic);
  EXPECT_EQ(healthy.rounds_completed, 6u);
  EXPECT_GT(healthy.final_accuracy, 0.5);
}

}  // namespace
}  // namespace totoro
