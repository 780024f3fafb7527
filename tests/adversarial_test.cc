// Adversarial scenario suite: Byzantine attacker roles (faultsim DSL) against the
// robust aggregation defenses (src/fl/robust.h), plus trace-driven diurnal churn.
//
// The golden scenarios pin the headline claim: under f = 30% sign-flip poisoning,
// plain FedAvg collapses while every robust combiner keeps final accuracy within a
// few points of the attack-free baseline — and every attacked run replays
// bit-identically per seed at any compute-thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/core/engine.h"
#include "src/core/eua_topology.h"
#include "src/faultsim/fault_injector.h"
#include "src/faultsim/fault_script.h"
#include "src/faultsim/invariant_checker.h"
#include "src/fl/aggregation.h"
#include "src/fl/robust.h"
#include "src/fl/selection.h"
#include "src/obs/metrics_registry.h"
#include "src/pubsub/forest.h"
#include "src/sim/latency_model.h"

namespace totoro {
namespace {

// ---------------------------------------------------------------------------
// Robust aggregation rules: unit and property tests.
// ---------------------------------------------------------------------------

std::vector<WeightedUpdate> RandomUpdates(size_t n, size_t dim, Rng& rng) {
  std::vector<WeightedUpdate> updates(n);
  for (auto& u : updates) {
    u.weights.resize(dim);
    for (float& w : u.weights) {
      w = static_cast<float>(rng.Uniform(-2.0, 2.0));
    }
    u.sample_weight = rng.Uniform(1.0, 100.0);
  }
  return updates;
}

TEST(RobustRulesTest, CoordinateMedianOddAndEvenCounts) {
  std::vector<WeightedUpdate> odd = {{{1.0f, 10.0f}, 1.0},
                                     {{3.0f, -5.0f}, 50.0},
                                     {{2.0f, 0.0f}, 1.0}};
  EXPECT_EQ(CoordinateMedian(odd), (std::vector<float>{2.0f, 0.0f}));
  std::vector<WeightedUpdate> even = {{{1.0f}, 1.0}, {{3.0f}, 1.0},
                                      {{100.0f}, 1.0}, {{2.0f}, 1.0}};
  EXPECT_EQ(CoordinateMedian(even), (std::vector<float>{2.5f}));
}

TEST(RobustRulesTest, TrimmedMeanDropsTheExtremes) {
  std::vector<WeightedUpdate> updates = {{{-100.0f}, 1.0}, {{1.0f}, 1.0},
                                         {{2.0f}, 1.0},    {{3.0f}, 1.0},
                                         {{100.0f}, 1.0}};
  // floor(0.2 * 5) = 1 trimmed per side: mean of {1, 2, 3}.
  EXPECT_EQ(TrimmedMean(updates, 0.2), (std::vector<float>{2.0f}));
  // trim = 0 is the plain unweighted per-coordinate mean.
  std::vector<WeightedUpdate> plain = {{{1.0f, 2.0f}, 1.0}, {{3.0f, 4.0f}, 9.0},
                                       {{5.0f, 6.0f}, 1.0}, {{7.0f, 8.0f}, 1.0}};
  EXPECT_EQ(TrimmedMean(plain, 0.0), (std::vector<float>{4.0f, 5.0f}));
}

TEST(RobustRulesTest, MedianAndTrimmedMeanArePermutationInvariantBitwise) {
  Rng rng(42);
  std::vector<WeightedUpdate> updates = RandomUpdates(9, 33, rng);
  const std::vector<float> median = CoordinateMedian(updates);
  const std::vector<float> trimmed = TrimmedMean(updates, 0.25);
  for (int trial = 0; trial < 20; ++trial) {
    rng.Shuffle(updates);
    const std::vector<float> m = CoordinateMedian(updates);
    const std::vector<float> t = TrimmedMean(updates, 0.25);
    ASSERT_EQ(m.size(), median.size());
    ASSERT_EQ(t.size(), trimmed.size());
    EXPECT_EQ(0, std::memcmp(m.data(), median.data(), m.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(t.data(), trimmed.data(), t.size() * sizeof(float)));
  }
}

TEST(RobustRulesTest, NormClipWithGenerousBudgetIsExactlyFedAvg) {
  Rng rng(43);
  const std::vector<WeightedUpdate> updates = RandomUpdates(7, 24, rng);
  std::vector<float> reference(24, 0.5f);
  size_t clipped = SIZE_MAX;
  const std::vector<float> clipped_mean =
      NormClippedMean(updates, reference, /*clip_norm=*/1e9, &clipped);
  const std::vector<float> fedavg = FederatedAverage(updates);
  EXPECT_EQ(clipped, 0u);
  ASSERT_EQ(clipped_mean.size(), fedavg.size());
  EXPECT_EQ(0, std::memcmp(clipped_mean.data(), fedavg.data(),
                           fedavg.size() * sizeof(float)));
}

TEST(RobustRulesTest, NormClipAutoBudgetBoundsAttackerInfluence) {
  // Nine honest updates with delta norm ~1, one attacker scaled 50x. The auto budget
  // (median of delta norms) caps the attacker at an honest-sized step, so the mean
  // lands within the budget of the reference no matter how hard the attacker pushes.
  Rng rng(44);
  const size_t dim = 16;
  std::vector<float> reference(dim, 0.0f);
  std::vector<WeightedUpdate> updates;
  for (int i = 0; i < 9; ++i) {
    WeightedUpdate u;
    u.weights.resize(dim);
    double norm2 = 0.0;
    for (float& w : u.weights) {
      w = static_cast<float>(rng.Uniform(-1.0, 1.0));
      norm2 += static_cast<double>(w) * w;
    }
    const float inv = static_cast<float>(1.0 / std::sqrt(norm2));
    for (float& w : u.weights) {
      w *= inv;  // Unit-norm delta.
    }
    u.sample_weight = 10.0;
    updates.push_back(std::move(u));
  }
  WeightedUpdate attacker;
  attacker.weights.assign(dim, 50.0f / std::sqrt(static_cast<float>(dim)) * 1.0f);
  attacker.sample_weight = 10.0;
  updates.push_back(attacker);

  size_t clipped = 0;
  const std::vector<float> result =
      NormClippedMean(updates, reference, /*clip_norm=*/0.0, &clipped);
  EXPECT_GE(clipped, 1u);  // At least the attacker got clipped.
  double result_norm = 0.0;
  for (float v : result) {
    result_norm += static_cast<double>(v) * v;
  }
  // Every clipped delta has norm <= budget (~1), so their weighted mean does too.
  EXPECT_LE(std::sqrt(result_norm), 1.0 + 1e-6);
}

TEST(RobustRulesTest, AllFiniteRejectsNaNAndInf) {
  std::vector<float> ok = {1.0f, -2.0f, 0.0f};
  EXPECT_TRUE(AllFinite(ok));
  std::vector<float> nan = ok;
  nan[1] = std::nanf("");
  EXPECT_FALSE(AllFinite(nan));
  std::vector<float> inf = ok;
  inf[2] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(AllFinite(inf));
}

// ---------------------------------------------------------------------------
// Collect combiner: id-sorted concatenation is arrival-order independent.
// ---------------------------------------------------------------------------

AggregationPiece ListPiece(uint64_t id, std::vector<float> weights, double sw) {
  auto list = std::make_shared<UpdateListPayload>();
  list->ids = {id};
  list->updates.push_back(WeightedUpdate{std::move(weights), sw});
  AggregationPiece piece;
  piece.data = list;
  piece.weight = sw;
  piece.count = 1;
  return piece;
}

AggregationPiece NullPiece() {
  AggregationPiece piece;
  piece.data = nullptr;
  piece.weight = 0.0;
  piece.count = 0;
  return piece;
}

TEST(CollectCombinerTest, MergesSortedByIdRegardlessOfArrivalOrder) {
  CombineFn combine = MakeCollectCombiner();
  const std::vector<AggregationPiece> forward = {
      ListPiece(3, {3.0f}, 30.0), ListPiece(1, {1.0f}, 10.0),
      NullPiece(), ListPiece(7, {7.0f}, 70.0)};
  std::vector<AggregationPiece> reversed(forward.rbegin(), forward.rend());

  const AggregationPiece a = combine(forward);
  const AggregationPiece b = combine(reversed);
  ASSERT_NE(a.data, nullptr);
  ASSERT_NE(b.data, nullptr);
  const auto* la = static_cast<const UpdateListPayload*>(a.data.get());
  const auto* lb = static_cast<const UpdateListPayload*>(b.data.get());
  EXPECT_EQ(la->ids, (std::vector<uint64_t>{1, 3, 7}));
  EXPECT_EQ(la->ids, lb->ids);
  ASSERT_EQ(la->updates.size(), 3u);
  for (size_t i = 0; i < la->updates.size(); ++i) {
    EXPECT_EQ(la->updates[i].weights, lb->updates[i].weights);
    EXPECT_EQ(la->updates[i].sample_weight, lb->updates[i].sample_weight);
  }
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(b.count, 3u);
}

TEST(CollectCombinerTest, AllNullPiecesYieldEmptyAggregate) {
  CombineFn combine = MakeCollectCombiner();
  const AggregationPiece total = combine({NullPiece(), NullPiece()});
  EXPECT_EQ(total.data, nullptr);
  EXPECT_EQ(total.count, 0u);
}

// ---------------------------------------------------------------------------
// Device classes and bandwidth-aware selection.
// ---------------------------------------------------------------------------

TEST(DeviceClassTest, DefaultClassesCoverTheFleet) {
  const auto classes = DefaultDeviceClasses();
  ASSERT_EQ(classes.size(), 4u);
  double total = 0.0;
  for (const DeviceClass& c : classes) {
    EXPECT_GT(c.speed_factor, 0.0);
    EXPECT_GT(c.bandwidth_factor, 0.0);
    total += c.fleet_fraction;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(DeviceClassTest, AssignmentIsDeterministicAndMatchesFractions) {
  const auto classes = DefaultDeviceClasses();
  const size_t n = 4000;
  const std::vector<size_t> a = AssignDeviceClasses(n, classes, 77);
  const std::vector<size_t> b = AssignDeviceClasses(n, classes, 77);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, AssignDeviceClasses(n, classes, 78));
  std::vector<size_t> counts(classes.size(), 0);
  for (size_t cls : a) {
    ASSERT_LT(cls, classes.size());
    ++counts[cls];
  }
  for (size_t i = 0; i < classes.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, classes[i].fleet_fraction, 0.04)
        << classes[i].name;
  }
}

TEST(SelectionSweepTest, BandwidthBetaZeroReproducesComputeOnlyPolicy) {
  std::vector<ClientInfo> clients;
  Rng gen(55);
  for (size_t i = 0; i < 20; ++i) {
    clients.push_back({i, gen.Uniform(0.1, 2.0), gen.Uniform(0.25, 4.0),
                       gen.Uniform(0.25, 4.0)});
  }
  OortLikeSelector compute_only(0.2, 0.5);
  OortLikeSelector beta_zero(0.2, 0.5, 0.0);
  Rng rng_a(9);
  Rng rng_b(9);
  for (size_t count : {4u, 8u, 12u}) {
    EXPECT_EQ(compute_only.Select(clients, count, rng_a),
              beta_zero.Select(clients, count, rng_b));
  }
}

TEST(SelectionSweepTest, BandwidthAwareExploitPrefersWellConnectedDevices) {
  // Equal loss and speed, strictly increasing bandwidth: a pure-exploit
  // bandwidth-aware selector must pick exactly the best-connected clients.
  std::vector<ClientInfo> clients;
  for (size_t i = 0; i < 10; ++i) {
    clients.push_back({i, 1.0, 1.0, 0.5 + 0.25 * static_cast<double>(i)});
  }
  OortLikeSelector selector(/*exploration_fraction=*/0.0, /*speed_alpha=*/0.5,
                            /*bandwidth_beta=*/1.0);
  Rng rng(3);
  std::vector<size_t> picked = selector.Select(clients, 3, rng);
  std::sort(picked.begin(), picked.end());
  EXPECT_EQ(picked, (std::vector<size_t>{7, 8, 9}));
}

TEST(SelectionSweepTest, DeviceClassSweepIsDeterministic) {
  // Full pipeline: class assignment feeds per-client factors, the bandwidth-aware
  // selector sweeps over budgets. Two identically seeded sweeps agree exactly.
  const auto classes = DefaultDeviceClasses();
  const std::vector<size_t> assignment = AssignDeviceClasses(40, classes, 91);
  std::vector<ClientInfo> clients;
  Rng loss_gen(92);
  for (size_t i = 0; i < assignment.size(); ++i) {
    const DeviceClass& c = classes[assignment[i]];
    clients.push_back({i, loss_gen.Uniform(0.2, 1.5), c.speed_factor,
                       c.bandwidth_factor});
  }
  OortLikeSelector selector(0.25, 0.5, 0.5);
  Rng rng_a(17);
  Rng rng_b(17);
  for (size_t count = 2; count <= 20; count += 3) {
    const std::vector<size_t> pick_a = selector.Select(clients, count, rng_a);
    const std::vector<size_t> pick_b = selector.Select(clients, count, rng_b);
    EXPECT_EQ(pick_a, pick_b) << "count " << count;
    EXPECT_EQ(pick_a.size(), count);
  }
}

// ---------------------------------------------------------------------------
// Golden attack scenarios: full engine runs under scripted Byzantine roles.
// ---------------------------------------------------------------------------

constexpr size_t kHosts = 40;
constexpr size_t kWorkers = 10;
constexpr size_t kRounds = 12;

struct AdvWorld {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;
  std::unique_ptr<Forest> forest;
  std::unique_ptr<TotoroEngine> engine;
  std::unique_ptr<FaultInjector> injector;
  Rng rng{1200};

  AdvWorld() {
    ScribeConfig scribe_config;
    scribe_config.aggregation_timeout_ms = 600.0;
    net = std::make_unique<Network>(
        &sim, std::make_unique<PairwiseUniformLatency>(1.0, 15.0, 13), NetworkConfig{});
    pastry = std::make_unique<PastryNetwork>(net.get(), PastryConfig{});
    for (size_t i = 0; i < kHosts; ++i) {
      pastry->AddRandomNode(rng);
    }
    pastry->BuildOracle(rng);
    forest = std::make_unique<Forest>(pastry.get(), scribe_config);
    engine = std::make_unique<TotoroEngine>(forest.get(), ComputeModel{}, 1201);
    injector = std::make_unique<FaultInjector>(pastry.get(), forest.get(), 1300);
    // Wire the faultsim attacker roles into the engine's generic adversary hooks.
    engine->SetUpdateInterceptor(
        [this](const NodeId&, uint64_t round, size_t node_index,
               std::span<const float> reference, std::vector<float>& weights,
               double& sample_weight) {
          return injector->PoisonUpdate(round, forest->scribe(node_index).host(),
                                        reference, weights, sample_weight);
        });
    engine->SetSybilProvider(
        [this](const NodeId& topic, uint64_t round, size_t node_index,
               std::span<const float> reference, std::vector<float>& weights,
               double& sample_weight) {
          return injector->ForgeSybilUpdate(topic, round,
                                            forest->scribe(node_index).host(),
                                            reference, weights, sample_weight);
        });
  }

  NodeId LaunchApp(RobustConfig robust, uint64_t seed) {
    SyntheticSpec spec;
    spec.dim = 16;
    spec.num_classes = 4;
    spec.seed = seed;
    SyntheticTask task(spec);
    Rng data_rng(seed + 1);
    FlAppConfig config;
    config.name = "adv-app";
    config.model_factory = [](uint64_t s) { return MakeSoftmaxRegression("sr", 16, 4, s); };
    config.train.learning_rate = 0.1f;
    config.target_accuracy = 2.0;
    config.max_rounds = kRounds;
    config.robust = robust;
    std::vector<size_t> nodes;
    std::vector<Dataset> shards;
    for (size_t i = 0; i < kWorkers; ++i) {
      nodes.push_back(i);
      shards.push_back(task.Generate(80, data_rng));
    }
    return engine->LaunchApp(config, nodes, std::move(shards), task.Generate(200, data_rng));
  }

  std::vector<HostId> WorkerHosts(size_t first, size_t count) const {
    std::vector<HostId> hosts;
    for (size_t i = first; i < first + count; ++i) {
      hosts.push_back(forest->scribe(i).host());
    }
    return hosts;
  }
};

struct Outcome {
  AppResult result;
  FaultInjector::Stats stats;
  uint64_t defended_rounds = 0;
  uint64_t rejected_updates = 0;
  uint64_t clipped_updates = 0;
};

// Builds one attack script over the first `attackers` workers.
FaultScript MakeAttackScript(const AdvWorld& world, AttackKind kind, size_t attackers,
                             double magnitude) {
  FaultScript script;
  if (attackers == 0) {
    return script;
  }
  const std::vector<HostId> hosts = world.WorkerHosts(0, attackers);
  switch (kind) {
    case AttackKind::kSignFlip:
      script.SignFlipAt(0.0, 1e9, hosts, magnitude);
      break;
    case AttackKind::kGaussianNoise:
      script.GaussianNoiseAt(0.0, 1e9, hosts, magnitude);
      break;
    case AttackKind::kGradientScale:
      script.GradientScaleAt(0.0, 1e9, hosts, magnitude);
      break;
  }
  return script;
}

Outcome RunAttackScenario(RobustConfig robust, AttackKind kind, size_t attackers,
                          double magnitude, size_t compute_threads = 1) {
  GlobalMetrics().ResetValues();
  AdvWorld world;
  const NodeId topic = world.LaunchApp(robust, 1400);
  world.injector->Schedule(MakeAttackScript(world, kind, attackers, magnitude));
  world.engine->SetComputeThreads(compute_threads);
  world.engine->StartAll();
  EXPECT_TRUE(world.engine->RunToCompletion(1e8));
  Outcome out;
  out.result = world.engine->result(topic);
  out.stats = world.injector->stats();
  out.defended_rounds = GlobalMetrics().GetCounter("engine.defense.rounds_defended").value();
  out.rejected_updates = GlobalMetrics().GetCounter("engine.defense.updates_rejected").value();
  out.clipped_updates = GlobalMetrics().GetCounter("engine.defense.updates_clipped").value();
  return out;
}

RobustConfig Defense(RobustAggregation rule) {
  RobustConfig config;
  config.rule = rule;
  config.trim_fraction = 0.3;
  return config;
}

void ExpectSameCurve(const AppResult& a, const AppResult& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].time_ms, b.curve[i].time_ms) << "point " << i;
    EXPECT_EQ(a.curve[i].round, b.curve[i].round) << "point " << i;
    EXPECT_EQ(a.curve[i].accuracy, b.curve[i].accuracy) << "point " << i;
  }
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
}

TEST(AdversarialGoldenTest, SignFlip30PercentFedAvgCollapsesDefensesHold) {
  // Attack-free baseline (plain FedAvg).
  const Outcome baseline =
      RunAttackScenario(RobustConfig{}, AttackKind::kSignFlip, 0, 0.0);
  ASSERT_EQ(baseline.result.rounds_completed, kRounds);
  ASSERT_GT(baseline.result.final_accuracy, 0.6);

  // f = 30% sign-flip, scale 4: undefended FedAvg loses >= 20 accuracy points.
  const Outcome fedavg = RunAttackScenario(RobustConfig{}, AttackKind::kSignFlip, 3, 4.0);
  EXPECT_EQ(fedavg.result.rounds_completed, kRounds);
  EXPECT_GT(fedavg.stats.poisoned_updates, 0u);
  EXPECT_LE(fedavg.result.final_accuracy, baseline.result.final_accuracy - 0.20);

  // Every robust combiner stays within 5 points of the attack-free baseline.
  for (RobustAggregation rule :
       {RobustAggregation::kCoordinateMedian, RobustAggregation::kTrimmedMean,
        RobustAggregation::kNormClip}) {
    const Outcome defended =
        RunAttackScenario(Defense(rule), AttackKind::kSignFlip, 3, 4.0);
    EXPECT_EQ(defended.result.rounds_completed, kRounds)
        << RobustAggregationName(rule);
    EXPECT_GE(defended.result.final_accuracy, baseline.result.final_accuracy - 0.05)
        << RobustAggregationName(rule);
    EXPECT_EQ(defended.defended_rounds, kRounds) << RobustAggregationName(rule);
    EXPECT_GT(defended.stats.poisoned_updates, 0u) << RobustAggregationName(rule);
  }
}

TEST(AdversarialGoldenTest, SignFlip10PercentMedianMatchesBaselineClosely) {
  const Outcome baseline =
      RunAttackScenario(RobustConfig{}, AttackKind::kSignFlip, 0, 0.0);
  const Outcome defended = RunAttackScenario(
      Defense(RobustAggregation::kCoordinateMedian), AttackKind::kSignFlip, 1, 4.0);
  EXPECT_GE(defended.result.final_accuracy, baseline.result.final_accuracy - 0.05);
}

TEST(AdversarialGoldenTest, GradientScalingAttackIsClippedAway) {
  const Outcome baseline =
      RunAttackScenario(RobustConfig{}, AttackKind::kSignFlip, 0, 0.0);
  const Outcome defended = RunAttackScenario(Defense(RobustAggregation::kNormClip),
                                             AttackKind::kGradientScale, 2, 400.0);
  EXPECT_EQ(defended.result.rounds_completed, kRounds);
  EXPECT_GE(defended.result.final_accuracy, baseline.result.final_accuracy - 0.05);
  // The scaled deltas blow past the auto budget every round they fire.
  EXPECT_GT(defended.clipped_updates, 0u);
  // Undefended, the amplified updates act as a ~40x learning-rate blowup and training
  // overshoots instead of converging.
  const Outcome fedavg =
      RunAttackScenario(RobustConfig{}, AttackKind::kGradientScale, 2, 400.0);
  EXPECT_LT(fedavg.result.final_accuracy, defended.result.final_accuracy);
}

TEST(AdversarialGoldenTest, GaussianNoisePoisoningIsTrimmedAway) {
  const Outcome baseline =
      RunAttackScenario(RobustConfig{}, AttackKind::kSignFlip, 0, 0.0);
  const Outcome defended = RunAttackScenario(Defense(RobustAggregation::kTrimmedMean),
                                             AttackKind::kGaussianNoise, 3, 2.0);
  EXPECT_EQ(defended.result.rounds_completed, kRounds);
  EXPECT_GE(defended.result.final_accuracy, baseline.result.final_accuracy - 0.05);
  EXPECT_GT(defended.stats.poisoned_updates, 0u);
}

TEST(AdversarialGoldenTest, AttackedRunsReplayBitIdenticallyAcrossThreadCounts) {
  // The acceptance bar: the same attacked scenario, rerun from scratch and rerun at a
  // different TOTORO_COMPUTE_THREADS, reproduces the whole accuracy curve and the
  // injector's bookkeeping byte for byte.
  const RobustConfig defense = Defense(RobustAggregation::kCoordinateMedian);
  const Outcome run1 = RunAttackScenario(defense, AttackKind::kSignFlip, 3, 4.0);
  const Outcome run2 = RunAttackScenario(defense, AttackKind::kSignFlip, 3, 4.0);
  const Outcome run4t =
      RunAttackScenario(defense, AttackKind::kSignFlip, 3, 4.0, /*compute_threads=*/4);
  ExpectSameCurve(run1.result, run2.result);
  ExpectSameCurve(run1.result, run4t.result);
  EXPECT_EQ(run1.stats.poisoned_updates, run2.stats.poisoned_updates);
  EXPECT_EQ(run1.stats.poisoned_updates, run4t.stats.poisoned_updates);
  EXPECT_EQ(run1.defended_rounds, run4t.defended_rounds);
  EXPECT_EQ(run1.rejected_updates, run4t.rejected_updates);
}

TEST(AdversarialGoldenTest, SybilBurstForgesUpdatesButMedianHolds) {
  // Four sybils (non-worker hosts) graft into the application tree through the real
  // JOIN protocol and submit forged reference+noise updates with inflated claimed
  // weights. FedAvg swallows the claimed weights; the median ignores them.
  AttackParams payload;
  payload.kind = AttackKind::kGaussianNoise;
  payload.noise_stddev = 2.0;
  payload.claimed_weight = 800.0;

  auto run_sybil = [&](RobustConfig robust) {
    GlobalMetrics().ResetValues();
    AdvWorld world;
    const NodeId topic = world.LaunchApp(robust, 1400);
    FaultScript script;
    std::vector<HostId> sybils;
    for (size_t i = 20; i < 24; ++i) {
      sybils.push_back(world.forest->scribe(i).host());
    }
    script.SybilJoinAt(10.0, topic, sybils, payload);
    world.injector->Schedule(script);
    world.sim.RunFor(300.0);  // Let the forged JOINs graft before training starts.
    world.engine->StartAll();
    EXPECT_TRUE(world.engine->RunToCompletion(1e8));
    Outcome out;
    out.result = world.engine->result(topic);
    out.stats = world.injector->stats();
    return out;
  };

  const Outcome baseline =
      RunAttackScenario(RobustConfig{}, AttackKind::kSignFlip, 0, 0.0);
  const Outcome fedavg = run_sybil(RobustConfig{});
  EXPECT_EQ(fedavg.stats.sybil_joins, 4u);
  EXPECT_GT(fedavg.stats.forged_updates, 0u);
  const Outcome defended = run_sybil(Defense(RobustAggregation::kCoordinateMedian));
  EXPECT_EQ(defended.stats.sybil_joins, 4u);
  EXPECT_GT(defended.stats.forged_updates, 0u);
  EXPECT_GE(defended.result.final_accuracy, baseline.result.final_accuracy - 0.05);
  // The defense strictly beats swallowing the forged weight-inflated updates.
  EXPECT_GE(defended.result.final_accuracy, fedavg.result.final_accuracy);
}

TEST(AdversarialGoldenTest, NoAttackerRobustRulesAgreeWithFedAvgWithinTolerance) {
  // With nobody attacking, a defense must not cost accuracy: all rules land near the
  // plain FedAvg baseline (they are not bit-identical — a median is not a mean).
  const Outcome baseline =
      RunAttackScenario(RobustConfig{}, AttackKind::kSignFlip, 0, 0.0);
  for (RobustAggregation rule :
       {RobustAggregation::kCoordinateMedian, RobustAggregation::kTrimmedMean,
        RobustAggregation::kNormClip}) {
    const Outcome defended = RunAttackScenario(Defense(rule), AttackKind::kSignFlip, 0, 0.0);
    EXPECT_EQ(defended.result.rounds_completed, kRounds) << RobustAggregationName(rule);
    EXPECT_GE(defended.result.final_accuracy, baseline.result.final_accuracy - 0.05)
        << RobustAggregationName(rule);
    EXPECT_EQ(defended.stats.poisoned_updates, 0u);
    EXPECT_EQ(defended.rejected_updates, 0u) << RobustAggregationName(rule);
  }
}

// ---------------------------------------------------------------------------
// Trace-driven diurnal churn over the EUA topology.
// ---------------------------------------------------------------------------

TEST(DiurnalChurnTest, ScriptGenerationIsDeterministic) {
  Rng rng_a(501);
  Rng rng_b(501);
  const FaultScript a = GenerateDiurnalChurnScript(rng_a, 64, 30000.0);
  const FaultScript b = GenerateDiurnalChurnScript(rng_b, 64, 30000.0);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_FALSE(a.empty());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind) << "event " << i;
    EXPECT_EQ(a.events()[i].at, b.events()[i].at) << "event " << i;
    EXPECT_EQ(a.events()[i].host, b.events()[i].host) << "event " << i;
  }
}

TEST(DiurnalChurnTest, EveryCrashIsPairedAndBounded) {
  Rng rng(502);
  const double duration = 40000.0;
  DiurnalChurnOptions opts;
  opts.peak_churn_prob = 0.08;
  opts.protected_hosts = {0, 1};
  const FaultScript script = GenerateDiurnalChurnScript(rng, 48, duration, opts);
  ASSERT_FALSE(script.empty());
  std::map<HostId, int> open;  // host -> outstanding crashes awaiting rejoin.
  size_t crashes = 0;
  for (const FaultEvent& ev : script.events()) {
    EXPECT_GE(ev.at, 0.05 * duration);
    EXPECT_LE(ev.at, 0.90 * duration);
    EXPECT_NE(ev.host, HostId{0});
    EXPECT_NE(ev.host, HostId{1});
    if (ev.kind == FaultKind::kCrash) {
      EXPECT_EQ(open[ev.host], 0) << "host crashed while already down";
      ++open[ev.host];
      ++crashes;
    } else {
      ASSERT_EQ(ev.kind, FaultKind::kRejoin);
      EXPECT_EQ(open[ev.host], 1) << "rejoin without a preceding crash";
      --open[ev.host];
    }
  }
  EXPECT_GT(crashes, 5u);
  for (const auto& [host, outstanding] : open) {
    EXPECT_EQ(outstanding, 0) << "host " << host << " never rejoined";
  }
}

TEST(DiurnalChurnTest, RegionalWavesAreSlotDiscretizedAndPhaseShifted) {
  // With a high peak probability and slots aligned to the period, crashes cluster
  // around each region's peak rather than spreading uniformly: the first region's
  // events concentrate in a different half-period than a region half a day away.
  Rng rng(503);
  const size_t hosts = 80;
  const double duration = 44000.0;
  DiurnalChurnOptions opts;
  opts.period_ms = 20000.0;
  opts.regions = 4;
  opts.base_churn_prob = 0.0;  // Crashes only near the peaks.
  opts.peak_churn_prob = 0.10;
  const FaultScript script = GenerateDiurnalChurnScript(rng, hosts, duration, opts);
  ASSERT_FALSE(script.empty());
  // Slot discretization: every event time is a multiple of slot_ms (crashes) or a
  // crash time plus a bounded outage.
  size_t crashes_region0 = 0;
  size_t crashes_region2 = 0;
  std::vector<double> phase0;
  std::vector<double> phase2;
  for (const FaultEvent& ev : script.events()) {
    if (ev.kind != FaultKind::kCrash) {
      continue;
    }
    // Slots are laid out from the start of the churn window (5% of the run).
    const double slot = (ev.at - 0.05 * duration) / opts.slot_ms;
    EXPECT_EQ(slot, std::floor(slot)) << "crash not slot-aligned";
    const size_t region = ev.host * opts.regions / hosts;
    const double phase = std::fmod(ev.at, opts.period_ms) / opts.period_ms;
    if (region == 0) {
      ++crashes_region0;
      phase0.push_back(phase);
    } else if (region == 2) {
      ++crashes_region2;
      phase2.push_back(phase);
    }
  }
  ASSERT_GT(crashes_region0, 3u);
  ASSERT_GT(crashes_region2, 3u);
  // Circular mean phase of each region's crash times; regions 0 and 2 are half a
  // period apart, so their mean phases must differ by roughly 0.5.
  auto mean_phase = [](const std::vector<double>& phases) {
    double s = 0.0;
    double c = 0.0;
    for (double p : phases) {
      s += std::sin(2.0 * M_PI * p);
      c += std::cos(2.0 * M_PI * p);
    }
    double m = std::atan2(s, c) / (2.0 * M_PI);
    return m < 0.0 ? m + 1.0 : m;
  };
  double gap = std::fabs(mean_phase(phase0) - mean_phase(phase2));
  gap = std::min(gap, 1.0 - gap);  // Circular distance.
  EXPECT_GT(gap, 0.3);
}

TEST(DiurnalChurnTest, ChurnWavesOverEuaTopologyPreserveInvariants) {
  // End-to-end: a geo-realistic EUA substrate under sweeping diurnal churn while an
  // application trains with tree repair on. The run must finish every round and the
  // invariant checker must observe zero violations.
  Rng topo_rng(601);
  const std::vector<EuaNode> eua = GenerateEuaTopology(48, topo_rng);
  std::vector<GeoPoint> positions;
  for (const EuaNode& n : eua) {
    positions.push_back(n.location);
  }
  const size_t hosts = positions.size();

  Simulator sim;
  Network net(&sim, std::make_unique<GeoLatency>(std::move(positions)), NetworkConfig{});
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(602);
  for (size_t i = 0; i < hosts; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 50.0;
  scribe_config.parent_timeout_ms = 170.0;
  scribe_config.join_retry_ms = 300.0;
  scribe_config.aggregation_timeout_ms = 500.0;
  Forest forest(&pastry, scribe_config);
  TotoroEngine engine(&forest, ComputeModel{}, 603);

  SyntheticSpec spec;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.seed = 604;
  SyntheticTask task(spec);
  Rng data_rng(605);
  FlAppConfig config;
  config.name = "diurnal-app";
  config.model_factory = [](uint64_t s) { return MakeSoftmaxRegression("sr", 16, 4, s); };
  config.train.learning_rate = 0.1f;
  config.target_accuracy = 2.0;
  config.max_rounds = 8;
  std::vector<size_t> nodes;
  std::vector<Dataset> shards;
  for (size_t i = 0; i < 10; ++i) {
    nodes.push_back(i);
    shards.push_back(task.Generate(80, data_rng));
  }
  const NodeId topic =
      engine.LaunchApp(config, nodes, std::move(shards), task.Generate(200, data_rng));

  FaultInjector injector(&pastry, &forest, 606);
  const size_t master = forest.RootOf(topic);
  ASSERT_NE(master, SIZE_MAX);
  DiurnalChurnOptions churn;
  churn.period_ms = 8000.0;
  churn.peak_churn_prob = 0.03;
  // Regions follow the contiguous host blocks of the EUA generator (nodes are emitted
  // region-major), so the waves sweep metro by metro.
  churn.regions = 4;
  churn.protected_hosts = {forest.scribe(master).host()};
  Rng churn_rng(607);
  const FaultScript script = GenerateDiurnalChurnScript(churn_rng, hosts, 20000.0, churn);
  ASSERT_FALSE(script.empty());
  injector.Schedule(script);

  InvariantChecker checker(&pastry, &forest);
  checker.WatchTopic(topic);
  checker.SetFaultInjector(&injector);
  checker.Start();

  forest.StartMaintenance();
  engine.StartAll();
  ASSERT_TRUE(engine.RunToCompletion(3e5));
  // Training can outrun the churn script; drain the remaining scripted rejoins (and a
  // grace period for repair) with the invariant checker still ticking.
  sim.RunFor(script.EndTime() + 5000.0);
  checker.Stop();
  const AppResult& result = engine.result(topic);
  EXPECT_EQ(result.rounds_completed, 8u);
  EXPECT_GT(result.final_accuracy, 0.3);  // Partial rounds still learn.
  EXPECT_EQ(injector.stats().crashes, injector.stats().rejoins);
  EXPECT_GT(checker.checks_run(), 0u);
  for (const InvariantViolation& v : checker.violations()) {
    ADD_FAILURE() << v.invariant << " at " << v.at << ": " << v.detail;
  }
}

}  // namespace
}  // namespace totoro
