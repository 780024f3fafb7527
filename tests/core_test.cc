#include <gtest/gtest.h>

#include "src/baselines/central_engine.h"
#include "src/core/engine.h"
#include "src/core/totoro_api.h"
#include "src/obs/metrics_registry.h"

namespace totoro {
namespace {

FlAppConfig SmallApp(const std::string& name, double target = 2.0, size_t max_rounds = 5) {
  FlAppConfig config;
  config.name = name;
  config.model_factory = [](uint64_t seed) {
    return MakeSoftmaxRegression("sr", 16, 4, seed);
  };
  config.train.learning_rate = 0.15f;
  config.train.batch_size = 20;
  config.train.local_steps = 5;
  config.target_accuracy = target;
  config.max_rounds = max_rounds;
  return config;
}

SyntheticSpec SmallTask(uint64_t seed) {
  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.class_separation = 2.5;
  spec.noise_stddev = 0.8;
  spec.seed = seed;
  return spec;
}

struct EngineWorld {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;
  std::unique_ptr<Forest> forest;
  std::unique_ptr<TotoroEngine> engine;
  Rng rng{100};

  explicit EngineWorld(size_t n) {
    NetworkConfig config;  // Bandwidth modelling on: training traffic is sized.
    net = std::make_unique<Network>(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 5),
                                    config);
    pastry = std::make_unique<PastryNetwork>(net.get(), PastryConfig{});
    for (size_t i = 0; i < n; ++i) {
      pastry->AddRandomNode(rng);
    }
    pastry->BuildOracle(rng);
    forest = std::make_unique<Forest>(pastry.get(), ScribeConfig{});
    engine = std::make_unique<TotoroEngine>(forest.get(), ComputeModel{}, 101);
  }

  // Generates shards + test set for `workers` and launches the app.
  NodeId Launch(const FlAppConfig& config, const std::vector<size_t>& workers, uint64_t seed) {
    SyntheticTask task(SmallTask(seed));
    Rng data_rng(seed + 1);
    const Dataset full = task.Generate(120 * workers.size(), data_rng);
    auto shards = PartitionDirichlet(full, workers.size(), 1.0, data_rng);
    // Guarantee non-empty shards (tiny probability of an empty one).
    for (auto& s : shards) {
      if (s.size() == 0) {
        s.Add(full.example(0));
      }
    }
    const Dataset test = task.Generate(200, data_rng);
    return engine->LaunchApp(config, workers, std::move(shards), test);
  }
};

TEST(VirtualNodeCountTest, MatchesPaperMapping) {
  EXPECT_EQ(VirtualNodeCount(1), 1);
  EXPECT_EQ(VirtualNodeCount(2), 1);
  EXPECT_EQ(VirtualNodeCount(4), 2);
  EXPECT_EQ(VirtualNodeCount(8), 3);
  EXPECT_EQ(VirtualNodeCount(16), 4);
}

// Regression for the former function-scope `static thread_local` metric caches in
// engine.cc: those bound each series to whichever engine first executed the site on
// this thread. Per-engine caching must (a) keep attributing into the registry's series
// after ResetValues() zeroes them, and (b) give a later engine on the same thread its
// own correctly-counted deltas.
// Master evaluation's chunked accuracy equals Model::Accuracy on the whole test set
// bit for bit, around the chunk boundary and at a size of several chunks, inline and
// on a pool.
TEST(ChunkedAccuracyTest, EqualsWholeSetAccuracy) {
  SyntheticTask task(SmallTask(41));
  Rng rng(42);
  const auto model = MakeMlp("m", 16, 8, 4, 43);
  const std::vector<float> weights = model->GetWeights();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ComputePool pool(threads);
    ModelReplicas replicas(model.get(), pool.threads());
    for (size_t size : {size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{400}}) {
      Dataset test = task.Generate(size, rng);
      const double whole = model->Accuracy(test);
      const std::vector<Dataset> chunks = std::move(test).Split(kEvalChunkExamples);
      EXPECT_EQ(chunks.size(), (size + kEvalChunkExamples - 1) / kEvalChunkExamples);
      EXPECT_EQ(ChunkedAccuracy(pool, replicas, weights, chunks), whole)
          << size << " examples, " << threads << " threads";
    }
  }
}

TEST(TotoroEngineTest, MetricSeriesSurviveRegistryValueReset) {
  std::vector<size_t> workers{1, 2, 3, 4, 5, 6};
  const Counter& tasks = GlobalMetrics().GetCounter("engine.compute.train_tasks");
  const uint64_t before = tasks.value();
  {
    EngineWorld world(12);
    world.Launch(SmallApp("reset-a", 2.0, 2), workers, 7);
    world.engine->StartAll();
    ASSERT_TRUE(world.engine->RunToCompletion());
  }
  const uint64_t delta = tasks.value() - before;
  EXPECT_GT(delta, 0u);
  GlobalMetrics().ResetValues();
  EXPECT_EQ(tasks.value(), 0u);
  {
    // Identical workload on a fresh engine: the new engine's cached pointers must hit
    // the same zeroed series, reproducing the first run's delta exactly.
    EngineWorld world(12);
    world.Launch(SmallApp("reset-a", 2.0, 2), workers, 7);
    world.engine->StartAll();
    ASSERT_TRUE(world.engine->RunToCompletion());
  }
  EXPECT_EQ(tasks.value(), delta);
}

TEST(TotoroEngineTest, SingleAppCompletesAllRounds) {
  EngineWorld world(60);
  std::vector<size_t> workers;
  for (size_t i = 0; i < 20; ++i) {
    workers.push_back(i);
  }
  const NodeId topic = world.Launch(SmallApp("app-a"), workers, 1);
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion());
  const auto& result = world.engine->result(topic);
  EXPECT_EQ(result.rounds_completed, 5u);
  EXPECT_EQ(result.curve.size(), 5u);
  EXPECT_GT(result.total_time_ms, 0.0);
  // Curve times strictly increase.
  for (size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GT(result.curve[i].time_ms, result.curve[i - 1].time_ms);
  }
}

TEST(TotoroEngineTest, AccuracyImprovesOverRounds) {
  EngineWorld world(60);
  std::vector<size_t> workers;
  for (size_t i = 0; i < 20; ++i) {
    workers.push_back(i);
  }
  auto config = SmallApp("app-acc", /*target=*/2.0, /*max_rounds=*/10);
  // A hard task with a gentle learning rate so the curve actually rises over rounds
  // instead of saturating in round 1.
  config.train.learning_rate = 0.02f;
  config.train.local_steps = 2;
  SyntheticSpec hard;
  hard.dim = 16;
  hard.num_classes = 4;
  hard.class_separation = 1.0;
  hard.noise_stddev = 1.8;
  hard.seed = 2;
  SyntheticTask task(hard);
  Rng data_rng(3);
  const Dataset full = task.Generate(120 * workers.size(), data_rng);
  auto shards = PartitionDirichlet(full, workers.size(), 1.0, data_rng);
  for (auto& s : shards) {
    if (s.size() == 0) {
      s.Add(full.example(0));
    }
  }
  const NodeId topic =
      world.engine->LaunchApp(config, workers, std::move(shards), task.Generate(300, data_rng));
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion());
  const auto& result = world.engine->result(topic);
  EXPECT_GT(result.final_accuracy, 0.45);
  EXPECT_GT(result.final_accuracy, result.curve.front().accuracy);
}

TEST(TotoroEngineTest, TargetAccuracyStopsEarly) {
  EngineWorld world(60);
  std::vector<size_t> workers;
  for (size_t i = 0; i < 15; ++i) {
    workers.push_back(i);
  }
  auto config = SmallApp("app-early", /*target=*/0.5, /*max_rounds=*/30);
  const NodeId topic = world.Launch(config, workers, 3);
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion());
  const auto& result = world.engine->result(topic);
  EXPECT_TRUE(result.reached_target);
  EXPECT_LT(result.rounds_completed, 30u);
  EXPECT_GT(result.time_to_target_ms, 0.0);
  EXPECT_LE(result.time_to_target_ms, result.total_time_ms);
}

TEST(TotoroEngineTest, ConcurrentAppsAllComplete) {
  EngineWorld world(100);
  std::vector<NodeId> topics;
  Rng pick(5);
  for (int a = 0; a < 5; ++a) {
    std::vector<size_t> workers;
    std::set<size_t> used;
    while (used.size() < 12) {
      used.insert(pick.NextBelow(world.pastry->size()));
    }
    workers.assign(used.begin(), used.end());
    topics.push_back(
        world.Launch(SmallApp("multi-" + std::to_string(a), 2.0, 3), workers, 10 + a));
  }
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion());
  for (const auto& topic : topics) {
    EXPECT_EQ(world.engine->result(topic).rounds_completed, 3u);
  }
  // Different apps have different masters (with high probability over 5 hashed ids).
  std::set<size_t> masters;
  for (const auto& topic : topics) {
    masters.insert(world.forest->RootOf(topic));
  }
  EXPECT_GE(masters.size(), 3u);
}

TEST(TotoroEngineTest, SlowNodesDelayRounds) {
  // Two identical apps; one whose workers are 10x slower finishes later.
  EngineWorld fast_world(50);
  EngineWorld slow_world(50);
  std::vector<size_t> workers;
  for (size_t i = 0; i < 10; ++i) {
    workers.push_back(i);
  }
  std::vector<double> slow(50, 0.1);
  slow_world.engine->SetSpeedFactors(slow);

  const NodeId t1 = fast_world.Launch(SmallApp("speed", 2.0, 3), workers, 21);
  const NodeId t2 = slow_world.Launch(SmallApp("speed", 2.0, 3), workers, 21);
  fast_world.engine->StartAll();
  slow_world.engine->StartAll();
  ASSERT_TRUE(fast_world.engine->RunToCompletion());
  ASSERT_TRUE(slow_world.engine->RunToCompletion());
  EXPECT_LT(fast_world.engine->result(t1).total_time_ms,
            slow_world.engine->result(t2).total_time_ms);
}

TEST(TotoroEngineTest, DpAppStillTrains) {
  EngineWorld world(50);
  std::vector<size_t> workers;
  for (size_t i = 0; i < 15; ++i) {
    workers.push_back(i);
  }
  auto config = SmallApp("dp-app", 2.0, 8);
  config.dp = DpConfig{5.0, 0.05};
  const NodeId topic = world.Launch(config, workers, 31);
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion());
  EXPECT_GT(world.engine->result(topic).final_accuracy, 0.4);
}

TEST(TotoroEngineTest, FlWorkChargedToWorkers) {
  EngineWorld world(40);
  std::vector<size_t> workers = {0, 1, 2, 3, 4};
  world.Launch(SmallApp("work-app", 2.0, 2), workers, 41);
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion());
  EXPECT_GT(world.net->metrics().TotalWork(WorkKind::kFlTask), 0.0);
  EXPECT_GT(world.net->metrics().TotalWork(WorkKind::kDhtTask), 0.0);
}

// ---------- Centralized baseline ----------

TEST(CentralizedEngineTest, SingleAppTrains) {
  Simulator sim;
  CentralizedEngine central(&sim, CentralConfig{}, 30, 51);
  SyntheticTask task(SmallTask(52));
  Rng rng(53);
  std::vector<size_t> clients;
  std::vector<Dataset> shards;
  for (size_t i = 0; i < 15; ++i) {
    clients.push_back(i);
    shards.push_back(task.Generate(100, rng));
  }
  const Dataset test = task.Generate(200, rng);
  const NodeId topic = central.LaunchApp(SmallApp("central-a", 2.0, 6), clients,
                                         std::move(shards), test);
  central.StartAll();
  ASSERT_TRUE(central.RunToCompletion());
  const auto& result = central.result(topic);
  EXPECT_EQ(result.rounds_completed, 6u);
  EXPECT_GT(result.final_accuracy, 0.5);
}

TEST(CentralizedEngineTest, TotalTimeGrowsWithConcurrentApps) {
  auto run_many = [](int num_apps) {
    Simulator sim;
    CentralizedEngine central(&sim, CentralConfig{}, 64, 61);
    SyntheticTask task(SmallTask(62));
    Rng rng(63);
    std::vector<NodeId> topics;
    for (int a = 0; a < num_apps; ++a) {
      std::vector<size_t> clients;
      std::vector<Dataset> shards;
      for (size_t i = 0; i < 10; ++i) {
        clients.push_back((a * 10 + i) % 64);
        shards.push_back(task.Generate(80, rng));
      }
      topics.push_back(central.LaunchApp(SmallApp("q-" + std::to_string(a), 2.0, 3),
                                         clients, std::move(shards), task.Generate(100, rng)));
    }
    central.StartAll();
    EXPECT_TRUE(central.RunToCompletion());
    double max_time = 0;
    for (const auto& t : topics) {
      max_time = std::max(max_time, central.result(t).total_time_ms);
    }
    return max_time;
  };
  const double one = run_many(1);
  const double eight = run_many(8);
  // The serial coordinator + shared NIC makes 8 concurrent apps much slower than 1.
  EXPECT_GT(eight, one * 2.0);
}

// ---------- Table 2 API facade ----------

TEST(TotoroApiTest, JoinCreateSubscribeBroadcastAggregate) {
  Totoro::Options options;
  options.seed = 71;
  Totoro api(options);
  for (int i = 0; i < 40; ++i) {
    api.Join(/*site=*/i % 2);
  }
  api.BuildOverlay();
  const NodeId app = api.CreateTree("table2-app");
  for (size_t i = 0; i < api.NumNodes(); ++i) {
    api.Subscribe(i, app);
  }
  api.Run();

  int broadcasts_seen = 0;
  api.SetOnBroadcast([&](Totoro::NodeHandle, const NodeId&, uint64_t,
                         const Totoro::ObjectPtr& object) {
    EXPECT_EQ(*static_cast<const int*>(object.get()), 77);
    ++broadcasts_seen;
  });
  double aggregate_weight = 0;
  api.SetOnAggregate([&](const NodeId&, uint64_t, const Totoro::ObjectPtr&, double weight) {
    aggregate_weight = weight;
  });
  api.Broadcast(app, 1, std::make_shared<int>(77), 512);
  api.Run();
  EXPECT_EQ(broadcasts_seen, 40);

  for (size_t i = 0; i < api.NumNodes(); ++i) {
    api.Aggregate(i, app, 1, std::make_shared<int>(1), 2.5, 64);
  }
  api.Run();
  EXPECT_DOUBLE_EQ(aggregate_weight, 2.5 * 40);
}

TEST(TotoroApiTest, MasterIsRendezvousNode) {
  Totoro::Options options;
  options.seed = 81;
  Totoro api(options);
  for (int i = 0; i < 30; ++i) {
    api.Join();
  }
  api.BuildOverlay();
  const NodeId app = api.CreateTree("master-app");
  for (size_t i = 0; i < api.NumNodes(); ++i) {
    api.Subscribe(i, app);
  }
  api.Run();
  const auto master = api.MasterOf(app);
  ASSERT_NE(master, SIZE_MAX);
  EXPECT_TRUE(api.forest().scribe(master).IsRoot(app));
}

TEST(TotoroEngineTest, SecureAggregationRoundSurvivesStragglerDeadline) {
  // Regression for the secure-sum combiner crashing on null "nothing to contribute"
  // pieces: a secure app with participant selection (unselected workers ack with null
  // pieces) and a straggler cut off every round by the tree timeout, backstopped by
  // Engine::SetRoundDeadline. The root must close rounds via dropout correction.
  NetworkConfig net_config;
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 5), net_config);
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(100);
  for (size_t i = 0; i < 50; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  ScribeConfig scribe_config;
  scribe_config.aggregation_timeout_ms = 250.0;  // Interior nodes forward partials.
  Forest forest(&pastry, scribe_config);
  TotoroEngine engine(&forest, ComputeModel{}, 101);
  engine.SetRoundDeadline(4000.0);
  std::vector<double> speeds(50, 1.0);
  speeds[2] = 1e-6;  // Never finishes within a round.
  engine.SetSpeedFactors(speeds);

  FlAppConfig config = SmallApp("secure-straggler", 2.0, 4);
  config.secure_aggregation = true;
  config.participants_per_round = 7;
  config.selection = SelectionPolicy::kRandom;
  std::vector<size_t> workers{0, 1, 2, 3, 4, 5, 6, 7};
  SyntheticTask task(SmallTask(11));
  Rng data_rng(12);
  std::vector<Dataset> shards;
  for (size_t i = 0; i < workers.size(); ++i) {
    shards.push_back(task.Generate(100, data_rng));
  }
  const uint64_t corrections_before =
      GlobalMetrics().GetCounter("engine.secure.dropout_corrections").value();
  const NodeId topic = engine.LaunchApp(config, workers, std::move(shards),
                                        task.Generate(200, data_rng));
  engine.StartAll();
  ASSERT_TRUE(engine.RunToCompletion());
  const auto& result = engine.result(topic);
  EXPECT_EQ(result.rounds_completed, 4u);
  EXPECT_GT(result.final_accuracy, 0.3);  // The unmasked model actually learned.
  // Worker 2 was selected in at least one round (random selection of 7 of 8 over 4
  // rounds makes a miss astronomically unlikely with this seed) and cut off, so the
  // root ran the mask-recovery correction.
  const uint64_t corrections_after =
      GlobalMetrics().GetCounter("engine.secure.dropout_corrections").value();
  EXPECT_GT(corrections_after, corrections_before);
}

TEST(TotoroEngineTest, SecureAggregationMatchesPlainFedAvgWithoutDropouts) {
  // With the full cohort contributing, masks cancel and the secure path must land on
  // (numerically almost exactly) the plain FedAvg model.
  auto run = [](bool secure) {
    EngineWorld world(40);
    FlAppConfig config = SmallApp(secure ? "sec" : "plain", 2.0, 3);
    config.secure_aggregation = secure;
    std::vector<size_t> workers{0, 1, 2, 3, 4, 5};
    const NodeId topic = world.Launch(config, workers, 21);
    world.engine->StartAll();
    EXPECT_TRUE(world.engine->RunToCompletion());
    return world.engine->result(topic).final_accuracy;
  };
  const double plain = run(false);
  const double secure = run(true);
  EXPECT_NEAR(secure, plain, 0.05);
}

TEST(TotoroEngineTest, AsyncStalenessDiscountConvergesAndRecordsHistogram) {
  EngineWorld world(50);
  // Heterogeneous speeds so some updates arrive stale (trained against an older
  // re-broadcast than the master's current model).
  std::vector<double> speeds(50, 1.0);
  for (size_t i = 0; i < speeds.size(); ++i) {
    speeds[i] = (i % 3 == 0) ? 0.2 : 1.0;
  }
  world.engine->SetSpeedFactors(speeds);
  FlAppConfig config = SmallApp("async-stale", 2.0, 6);
  config.async = AsyncConfig{};
  config.async->staleness_exponent = 1.0;
  std::vector<size_t> workers{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const Histogram& staleness = GlobalMetrics().GetHistogram(
      "engine.async.staleness_rounds", Histogram::HopCountBounds());
  const uint64_t observed_before = staleness.count();
  const NodeId topic = world.Launch(config, workers, 31);
  world.engine->StartAll();
  ASSERT_TRUE(world.engine->RunToCompletion());
  const auto& result = world.engine->result(topic);
  EXPECT_EQ(result.rounds_completed, 6u);
  EXPECT_FALSE(result.curve.empty());
  EXPECT_GT(staleness.count(), observed_before);
}

TEST(TotoroApiTest, OnTimerFiresPeriodically) {
  Totoro::Options options;
  options.seed = 91;
  Totoro api(options);
  api.Join();
  api.BuildOverlay();
  const NodeId app = api.CreateTree("timer-app");
  int fires = 0;
  api.SetOnTimer(app, 100.0, [&](const NodeId& id) {
    EXPECT_EQ(id, app);
    ++fires;
  });
  api.sim().RunUntil(1000.0);
  EXPECT_EQ(fires, 10);
}

}  // namespace
}  // namespace totoro
