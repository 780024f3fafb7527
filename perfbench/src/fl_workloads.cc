// fl_multiapp and fl_churn: federated training through TotoroEngine.
//
// Set-up builds the overlay, the forest, the engine, every dataset, and launches every
// app (LaunchApp subscribes its workers and settles the tree). The timed phase is
// StartAll plus the run: to completion on fl_multiapp, for a fixed virtual horizon on
// fl_churn. An op is a round closed by its master; its virtual latency is broadcast to
// master evaluation, read from AppResult::curve.
//
// Under churn a worker that dies stays in its parent's children table, so each of its
// app's later rounds waits for the aggregation cut-off; when that happens depends on
// the seed. A fixed horizon with apps that keep training gives every seed the same
// amount of churn, and the metrics average over ~1,000 rounds instead of hinging on
// which app lost a worker or a master first.
//
// Traced repetitions install two forwarding decorators: a Model that times TrainLocal
// and evaluation (returned by the apps' ModelFactory), and a combiner that times
// MakeFedAvgCombiner() (set on every ScribeNode after the engine is built).
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/core/engine.h"
#include "src/dht/churn.h"
#include "src/obs/profiler.h"

namespace perfbench {
namespace {

using totoro::AppResult;
using totoro::Dataset;
using totoro::FlAppConfig;
using totoro::Forest;
using totoro::Model;
using totoro::ModelFactory;
using totoro::Network;
using totoro::NetworkConfig;
using totoro::NodeId;
using totoro::PastryConfig;
using totoro::PastryNetwork;
using totoro::ProfileScope;
using totoro::Rng;
using totoro::ScribeConfig;
using totoro::Simulator;
using totoro::SyntheticSpec;
using totoro::SyntheticTask;
using totoro::TotoroEngine;

class TimedModel : public Model {
 public:
  explicit TimedModel(std::unique_ptr<Model> inner) : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  size_t NumParams() const override { return inner_->NumParams(); }
  std::vector<float> GetWeights() const override { return inner_->GetWeights(); }
  void SetWeights(std::span<const float> weights) override { inner_->SetWeights(weights); }
  std::unique_ptr<Model> Clone() const override {
    return std::make_unique<TimedModel>(inner_->Clone());
  }
  float TrainLocal(const Dataset& shard, const totoro::TrainConfig& config, Rng& rng,
                   std::span<const float> anchor) override {
    ProfileScope scope("ml_train");
    return inner_->TrainLocal(shard, config, rng, anchor);
  }
  double Accuracy(const Dataset& data) const override {
    ProfileScope scope("ml_eval");
    return inner_->Accuracy(data);
  }
  double Loss(const Dataset& data) const override {
    ProfileScope scope("ml_eval");
    return inner_->Loss(data);
  }

 private:
  std::unique_ptr<Model> inner_;
};

ModelFactory MaybeTimed(ModelFactory factory, bool traced) {
  if (!traced) {
    return factory;
  }
  return [factory = std::move(factory)](uint64_t seed) -> std::unique_ptr<Model> {
    return std::make_unique<TimedModel>(factory(seed));
  };
}

void InstallTimedCombiner(Forest& forest) {
  totoro::CombineFn fedavg = totoro::MakeFedAvgCombiner();
  for (size_t i = 0; i < forest.size(); ++i) {
    forest.scribe(i).SetCombineFn([fedavg](const std::vector<totoro::AggregationPiece>& pieces) {
      ProfileScope scope("fl_aggregate");
      return fedavg(pieces);
    });
  }
}

// One simulated deployment: plain engine, pairwise-uniform links, bandwidth modelled.
struct World {
  Simulator sim;
  Network net;
  PastryNetwork pastry;
  std::unique_ptr<Forest> forest;
  double build_rss_growth = 0.0;

  size_t joins = 0;

  // `join_ms` > 0 grows the overlay through the live join protocol for that long
  // before the forest is built, so joined nodes carry a ScribeNode like the rest.
  World(size_t nodes, uint64_t seed, double latency_lo, double latency_hi,
        const PastryConfig& pastry_config, const ScribeConfig& scribe_config,
        double join_ms = 0.0)
      : net(&sim,
            std::make_unique<totoro::PairwiseUniformLatency>(latency_lo, latency_hi,
                                                             seed ^ 0xFEED),
            NetworkConfig{}),
        pastry(&net, pastry_config) {
    const double rss_before = CurrentRssBytes();
    {
      ProfileScope scope("dht_build");
      Rng rng(seed);
      pastry.Reserve(nodes);
      for (size_t i = 0; i < nodes; ++i) {
        pastry.AddRandomNode(rng);
      }
      pastry.BuildOracle(rng);
      if (pastry_config.enable_keepalive) {
        for (size_t i = 0; i < pastry.size(); ++i) {
          pastry.node(i).StartKeepAlive();
        }
      }
    }
    build_rss_growth = CurrentRssBytes() - rss_before;
    if (join_ms > 0.0) {
      ProfileScope scope("dht_join");
      totoro::ChurnConfig join_only;
      join_only.event_interval_ms = 20.0;
      join_only.leave_fraction = 0.0;
      totoro::ChurnDriver joiner(&pastry, join_only, seed + 4);
      joiner.Start();
      sim.RunFor(join_ms);
      joiner.Stop();
      joins = joiner.joins();
    }
    ProfileScope scope("pubsub_build");
    forest = std::make_unique<Forest>(&pastry, scribe_config);
  }

  std::vector<size_t> RandomNodes(size_t count, Rng& pick) const {
    std::vector<size_t> all(pastry.size());
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = i;
    }
    pick.Shuffle(all);
    all.resize(count);
    return all;
  }
};

// Counters of the timed phase, read before and after it.
struct TimedSnapshot {
  uint64_t bytes = 0;
  uint64_t msgs = 0;
  uint64_t drops = 0;
  uint64_t events = 0;
  uint64_t cancelled = 0;
  double loop_wall = 0.0;
  double deadline_closed = 0.0;

  explicit TimedSnapshot(const World& w)
      : bytes(w.net.metrics().total_bytes()),
        msgs(w.net.metrics().total_messages()),
        drops(w.net.metrics().dropped_messages()),
        events(w.sim.events_fired()),
        cancelled(w.sim.events_cancelled()),
        loop_wall(w.sim.run_wall_seconds()),
        deadline_closed(CounterValue("engine.round.deadline_expired")) {}
};

// Folds the apps' results into the virtual outcome. An app reaches its goal where its
// accuracy curve first crosses goals[name], interpolated linearly between the two
// closed rounds around the crossing (from 0 accuracy at launch), so the time does not
// jump by whole rounds between seeds. Failed ops: rounds force-closed by the straggler
// deadline, plus apps that never reached their goal.
//
// Time to accuracy is taken when half of the apps have reached their goal. The tail
// apps are seed-dependent stragglers: on fl_multiapp one app in 24 needing 11 rounds
// where the rest need 7-9; on fl_churn an app that lost a worker early. Over ten seeds
// the last-app time spread by 21% (IQR / median) on fl_multiapp, and the time at 90%
// of the apps by 57-83% on fl_churn.
void FoldResults(const std::vector<AppResult>& apps, const std::map<std::string, double>& goals,
                 const TimedSnapshot& before, const TimedSnapshot& after, RepResult& r) {
  VirtualResult& v = r.v;
  std::vector<double> round_ms;
  std::vector<double> reached_at_ms;
  uint64_t fp = kFingerprintSeed;
  uint64_t missed = 0;
  for (const AppResult& app : apps) {
    const double goal = goals.at(app.name);
    double previous_ms = 0.0;
    double previous_accuracy = 0.0;
    double reached_ms = -1.0;
    for (const auto& point : app.curve) {
      round_ms.push_back(point.time_ms - previous_ms);
      if (reached_ms < 0.0 && point.accuracy >= goal) {
        reached_ms = previous_ms + (point.time_ms - previous_ms) *
                                       (goal - previous_accuracy) /
                                       (point.accuracy - previous_accuracy);
      }
      previous_ms = point.time_ms;
      previous_accuracy = point.accuracy;
      fp = MixDouble(Mix(MixDouble(fp, point.time_ms), point.round), point.accuracy);
    }
    v.ops += app.curve.size();
    if (reached_ms < 0.0) {
      ++missed;
    }
    reached_at_ms.push_back(reached_ms < 0.0 ? previous_ms : reached_ms);
  }
  const uint64_t bytes = after.bytes - before.bytes;
  fp = Mix(Mix(fp, bytes), after.msgs - before.msgs);
  v.fingerprint = fp;
  v.attempted = v.ops + apps.size();
  v.failed = static_cast<uint64_t>(after.deadline_closed - before.deadline_closed) + missed;
  if (!round_ms.empty()) {
    v.op_virtual_ms_p50 = Quantile(round_ms, 0.5);
    v.op_virtual_ms_p90 = Quantile(round_ms, 0.9);
    v.wire_bytes_per_op = static_cast<double>(bytes) / static_cast<double>(v.ops);
  }
  v.tta_virtual_s = Quantile(reached_at_ms, 0.5) / 1000.0;
  r.rate_samples.push_back(static_cast<double>(v.ops) / r.timed_s);
  if (missed > 0) {
    r.error = std::to_string(missed) + " apps never reached their target accuracy";
  }
}

void FillFlLayers(const World& w, const TimedSnapshot& before, const TimedSnapshot& after,
                  RepResult& r) {
  const totoro::Profiler& prof = totoro::GlobalProfiler();
  const double loop_s = after.loop_wall - before.loop_wall;
  const double events = static_cast<double>(after.events - before.events);
  r.layers = {
      {"dht.build_s", PhaseWall(prof, "dht_build")},
      {"dht.bytes_per_host",
       w.build_rss_growth / static_cast<double>(w.forest->size())},
      {"dht.hops_mean", HistogramMean("dht.route.hops")},
      {"dht.hops_p90", HistogramQuantile("dht.route.hops", 0.9)},
      {"sim.run_s", loop_s},
      {"sim.self_s", PhaseWall(prof, "sim_run", "core", /*self=*/true)},
      {"sim.events", events},
      {"sim.events_per_s", loop_s > 0.0 ? events / loop_s : 0.0},
      {"sim.events_cancelled", static_cast<double>(after.cancelled - before.cancelled)},
      {"net.msgs", static_cast<double>(after.msgs - before.msgs)},
      {"net.bytes", static_cast<double>(after.bytes - before.bytes)},
      {"net.drops", static_cast<double>(after.drops - before.drops)},
      {"pubsub.build_s", PhaseWall(prof, "pubsub_build")},
      {"pubsub.subscribe_s", PhaseWall(prof, "pubsub_subscribe")},
      {"pubsub.subscribe_virtual_ms", PhaseVirtualMs(prof, "pubsub_subscribe")},
      {"pubsub.broadcast_ms_p50", HistogramQuantile("pubsub.broadcast.latency_ms", 0.5)},
      {"pubsub.aggregate_ms_p50", HistogramQuantile("pubsub.aggregate.latency_ms", 0.5)},
      {"pubsub.join_retries", CounterValue("pubsub.join.retries")},
      {"pubsub.updates_dropped", CounterValue("pubsub.update.duplicates_dropped") +
                                     CounterValue("pubsub.update.closed_round_dropped")},
      {"ml.train_s", PhaseWall(prof, "ml_train")},
      {"ml.train_calls", static_cast<double>(PhaseCalls(prof, "ml_train"))},
      {"ml.eval_s", PhaseWall(prof, "ml_eval")},
      {"ml.eval_calls", static_cast<double>(PhaseCalls(prof, "ml_eval"))},
      {"fl.aggregate_s", PhaseWall(prof, "fl_aggregate")},
      {"fl.aggregate_calls", static_cast<double>(PhaseCalls(prof, "fl_aggregate"))},
      {"fl.train_tasks", CounterValue("engine.compute.train_tasks")},
      {"fl.rounds_partial", after.deadline_closed - before.deadline_closed},
      {"core.plan_s", PhaseWall(prof, "plan", "", /*self=*/true)},
      {"core.disseminate_s", PhaseWall(prof, "disseminate", "", /*self=*/true)},
      {"core.train_s", PhaseWall(prof, "train", "", /*self=*/true)},
      {"core.aggregate_s", PhaseWall(prof, "aggregate", "", /*self=*/true)},
      {"core.evaluate_s", PhaseWall(prof, "evaluate", "", /*self=*/true)},
      {"obs.unattributed_s", r.timed_s - PhaseWall(prof, "core")},
  };
}

FlAppConfig AppConfig(const std::string& name, ModelFactory factory, float learning_rate,
                      double target, size_t max_rounds) {
  FlAppConfig config;
  config.name = name;
  config.model_factory = std::move(factory);
  config.train.learning_rate = learning_rate;
  config.train.batch_size = 16;
  config.train.local_steps = 4;
  config.target_accuracy = target;
  config.max_rounds = max_rounds;
  return config;
}

// Fig 8/9's two task profiles: a speech-like task on the ResNet-34 proxy (53% target)
// and a FEMNIST-like task on the ShuffleNet V2 proxy (75.5% target). The task ground
// truth is fixed; the seed draws the deployment, the worker sets and every sample.
struct Profile {
  const char* name;
  SyntheticSpec spec;
  ModelFactory factory;
  float learning_rate;
  double target;
};

std::vector<Profile> MultiappProfiles() {
  SyntheticSpec speech;
  speech.dim = 32;
  speech.num_classes = 35;
  speech.class_separation = 1.3;
  speech.noise_stddev = 2.0;
  speech.seed = 42;
  SyntheticSpec femnist;
  femnist.dim = 32;
  femnist.num_classes = 62;
  femnist.class_separation = 1.8;
  femnist.noise_stddev = 1.2;
  femnist.seed = 43;
  return {
      {"speech", speech,
       [](uint64_t s) { return totoro::MakeResNet34Proxy(32, 35, s); }, 0.05f, 0.53},
      {"femnist", femnist,
       [](uint64_t s) { return totoro::MakeShuffleNetV2Proxy(32, 62, s); }, 0.1f, 0.755},
  };
}

}  // namespace

RepResult RunFlMultiapp(const RepOptions& options) {
  const size_t nodes = options.small ? 120 : 400;
  const size_t num_apps = options.small ? 4 : 24;
  constexpr size_t kWorkers = 8;
  constexpr size_t kShardExamples = 150;
  constexpr size_t kTestExamples = 400;
  constexpr size_t kMaxRounds = 60;
  RepResult r;
  const double t0 = WallSeconds();

  PastryConfig pastry_config;
  pastry_config.bits_per_digit = 5;  // Fanout 32.
  World w(nodes, options.seed, 2.0, 40.0, pastry_config, ScribeConfig{});
  TotoroEngine engine(w.forest.get(), totoro::ComputeModel{}, options.seed + 1);
  if (options.traced) {
    InstallTimedCombiner(*w.forest);
  }
  const std::vector<Profile> profiles = MultiappProfiles();
  std::vector<SyntheticTask> tasks;
  for (const Profile& p : profiles) {
    tasks.emplace_back(p.spec);
  }
  Rng data_rng(options.seed + 2);
  Rng pick(options.seed + 3);
  std::map<std::string, double> goals;
  for (size_t a = 0; a < num_apps; ++a) {
    const size_t k = a % profiles.size();
    const Profile& profile = profiles[k];
    std::vector<size_t> workers = w.RandomNodes(kWorkers, pick);
    std::vector<Dataset> shards;
    for (size_t i = 0; i < kWorkers; ++i) {
      shards.push_back(tasks[k].Generate(kShardExamples, data_rng));
    }
    Dataset test = tasks[k].Generate(kTestExamples, data_rng);
    FlAppConfig config =
        AppConfig(std::string(profile.name) + "-" + std::to_string(a),
                  MaybeTimed(profile.factory, options.traced), profile.learning_rate,
                  profile.target, kMaxRounds);
    goals[config.name] = profile.target;
    ProfileScope scope("pubsub_subscribe");
    engine.LaunchApp(config, workers, std::move(shards), std::move(test));
  }
  r.setup_s = WallSeconds() - t0;

  const TimedSnapshot before(w);
  const double timed_start = WallSeconds();
  bool done = false;
  {
    ProfileScope scope("core");
    engine.StartAll();
    done = engine.RunToCompletion();
  }
  r.timed_s = WallSeconds() - timed_start;
  const TimedSnapshot after(w);

  FoldResults(engine.AllResults(), goals, before, after, r);
  if (!done && r.error.empty()) {
    r.error = "apps did not finish";
  }
  if (options.traced) {
    FillFlLayers(w, before, after, r);
  }
  return r;
}

RepResult RunFlChurn(const RepOptions& options) {
  const size_t nodes = options.small ? 160 : 1200;
  const size_t num_apps = options.small ? 2 : 12;
  const double horizon_ms = options.small ? 3000.0 : 10000.0;
  constexpr size_t kWorkers = 16;
  constexpr size_t kShardExamples = 80;
  constexpr size_t kTestExamples = 200;
  // Apps train for the whole horizon (no early stop); the goal is the accuracy each
  // must reach on the way, and the floor is where each must end.
  constexpr double kGoal = 0.8;
  constexpr double kAccuracyFloor = 0.78;
  RepResult r;
  const double t0 = WallSeconds();

  PastryConfig pastry_config;
  pastry_config.enable_keepalive = true;
  pastry_config.keepalive_interval_ms = 500.0;
  pastry_config.keepalive_timeout_ms = 1600.0;
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 100.0;
  scribe_config.parent_timeout_ms = 350.0;
  scribe_config.aggregation_timeout_ms = 200.0;
  scribe_config.join_retry_ms = 400.0;
  World w(nodes, options.seed, 1.0, 15.0, pastry_config, scribe_config,
          /*join_ms=*/options.small ? 400.0 : 2000.0);
  w.forest->StartMaintenance();
  TotoroEngine engine(w.forest.get(), totoro::ComputeModel{}, options.seed + 1);
  TotoroEngine::FailoverConfig failover;
  failover.watchdog_interval_ms = 300.0;
  failover.stall_timeout_ms = 2500.0;
  engine.EnableFailover(failover);
  // The deadline is armed and cancelled every round. It is longer than the failover
  // watchdog takes to restart a stalled round, so it only cuts a round the watchdog
  // could not restart.
  engine.SetRoundDeadline(10000.0);
  // Keep-alive timers never drain the queue; bound the tree-build settle.
  engine.SetSubscribeSettleMs(500.0);
  if (options.traced) {
    InstallTimedCombiner(*w.forest);
  }
  SyntheticSpec spec = SyntheticTask::TextClassificationLike(13);
  spec.class_separation = 1.0;
  spec.noise_stddev = 1.5;
  SyntheticTask task(spec);
  const ModelFactory factory = MaybeTimed(
      [](uint64_t s) { return totoro::MakeTextClassifierProxy(32, 4, s); }, options.traced);
  Rng data_rng(options.seed + 2);
  Rng pick(options.seed + 3);
  std::map<std::string, double> goals;
  for (size_t a = 0; a < num_apps; ++a) {
    std::vector<size_t> workers = w.RandomNodes(kWorkers, pick);
    std::vector<Dataset> shards;
    for (size_t i = 0; i < kWorkers; ++i) {
      shards.push_back(task.Generate(kShardExamples, data_rng));
    }
    Dataset test = task.Generate(kTestExamples, data_rng);
    FlAppConfig config = AppConfig("churn-" + std::to_string(a), factory, 0.05f,
                                   /*target=*/2.0, /*max_rounds=*/1000000);
    goals[config.name] = kGoal;
    ProfileScope scope("pubsub_subscribe");
    engine.LaunchApp(config, workers, std::move(shards), std::move(test));
  }
  // Timed churn only leaves. Forest has no ScribeNode for a node that joins after it
  // is built, so a joiner that becomes a topic's rendezvous strands that app: with
  // joins here, 2 of 10 seeds had an app that never reached its goal. Joins run in
  // set-up instead (World's join phase). At one leave per 150 virtual ms the share of
  // rounds slowed by a dead worker stays between 10% and 50% on every seed tried, so
  // the round-latency p50 and p90 do not flip between the fast and the cut-off mode.
  totoro::ChurnConfig churn_config;
  churn_config.event_interval_ms = 150.0;
  churn_config.enable_joins = false;
  churn_config.min_live_nodes = nodes / 2;
  totoro::ChurnDriver churn(&w.pastry, churn_config, options.seed + 5);
  r.setup_s = WallSeconds() - t0;

  const TimedSnapshot before(w);
  const double timed_start = WallSeconds();
  {
    ProfileScope scope("core");
    churn.Start();
    engine.StartAll();
    w.sim.RunFor(horizon_ms);
    churn.Stop();
  }
  r.timed_s = WallSeconds() - timed_start;
  const TimedSnapshot after(w);

  const std::vector<AppResult> apps = engine.AllResults();
  FoldResults(apps, goals, before, after, r);
  r.v.fingerprint = Mix(Mix(r.v.fingerprint, churn.leaves()), churn.joins());
  for (const AppResult& app : apps) {
    if (app.final_accuracy < kAccuracyFloor && r.error.empty()) {
      r.error = app.name + " ended at accuracy " + std::to_string(app.final_accuracy) +
                ", below the floor " + std::to_string(kAccuracyFloor);
      r.v.failed += 1;
    }
  }
  if (options.traced) {
    FillFlLayers(w, before, after, r);
    r.layers["dht.joins"] = static_cast<double>(w.joins);
    r.layers["dht.leaves"] = static_cast<double>(churn.leaves());
  }
  return r;
}

}  // namespace perfbench
