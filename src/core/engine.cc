#include "src/core/engine.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/ml/kernels.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace totoro {
namespace {

// Opcode for asynchronous-protocol updates routed straight to the master (range 200+).
constexpr int kFlAsyncUpdate = 200;
// Checkpoint replication from the master to its leaf-set neighbors.
constexpr int kFlCheckpoint = 201;

// Per-round secure-aggregation group seeds derive from one app seed.
constexpr uint64_t kSecureRoundSeedMix = 0x9E3779B97F4A7C15ull;

// Payload of an async update: the worker's freshly trained weights plus the round of
// the broadcast it trained against (the master derives staleness from it).
struct AsyncUpdatePayload {
  NodeId topic;
  uint64_t round = 0;
  std::vector<float> weights;
  double sample_weight = 1.0;
};

}  // namespace

int VirtualNodeCount(int cpu_cores) {
  CHECK_GE(cpu_cores, 1);
  int count = 0;
  while (cpu_cores > 1) {
    cpu_cores >>= 1;
    ++count;
  }
  return count < 1 ? 1 : count;
}

bool RecordRound(const FlAppConfig& config, double elapsed_ms, uint64_t round,
                 double accuracy, AppResult* result) {
  result->curve.push_back(AccuracyPoint{elapsed_ms, round, accuracy});
  result->rounds_completed = round;
  result->final_accuracy = accuracy;
  if (!result->reached_target && accuracy >= config.target_accuracy) {
    result->reached_target = true;
    result->time_to_target_ms = elapsed_ms;
  }
  if (!result->reached_target && round < config.max_rounds) {
    return false;
  }
  result->total_time_ms = elapsed_ms;
  return true;
}

TotoroEngine::TotoroEngine(Forest* forest, ComputeModel compute, uint64_t seed)
    : forest_(forest), compute_(compute), rng_(seed) {
  if (forest_->pastry().network()->sim()->num_shards() != 1) {
    CheckFailed(__FILE__, __LINE__,
                "TotoroEngine runs at K=1 only: its per-app state is not shown to be "
                "thread-safe, so build its Simulator with one shard");
  }
  pool_ = std::make_unique<ComputePool>(ComputePool::ThreadsFromEnv());
  MetricsRegistry& metrics = GlobalMetrics();
  series_.deadline_expired = &metrics.GetCounter("engine.round.deadline_expired");
  series_.train_tasks = &metrics.GetCounter("engine.compute.train_tasks");
  series_.defense_collected = &metrics.GetCounter("engine.defense.updates_collected");
  series_.defense_rejected = &metrics.GetCounter("engine.defense.updates_rejected");
  series_.defense_clipped = &metrics.GetCounter("engine.defense.updates_clipped");
  series_.defense_rounds = &metrics.GetCounter("engine.defense.rounds_defended");
  series_.secure_corrections = &metrics.GetCounter("engine.secure.dropout_corrections");
  series_.secure_dropped = &metrics.GetCounter("engine.secure.dropped_clients");
  series_.async_staleness =
      &metrics.GetHistogram("engine.async.staleness_rounds", Histogram::HopCountBounds());
  series_.round_duration =
      &metrics.GetHistogram("engine.round.duration_ms", Histogram::DefaultLatencyBoundsMs());
  speed_factors_.assign(forest_->size(), 1.0);
  // One set of upcalls for the forest; dispatch on topic inside the engine.
  forest_->SetOnBroadcast(
      [this](HostId host, const NodeId& topic, uint64_t round, const ScribeBroadcast& bc) {
        OnBroadcast(host, topic, round, bc);
      });
  forest_->SetOnRootAggregate(
      [this](const NodeId& topic, uint64_t round, const AggregationPiece& total) {
        OnRootAggregate(topic, round, total);
      });
  for (size_t i = 0; i < forest_->size(); ++i) {
    ScribeNode& scribe = forest_->scribe(i);
    scribe.SetCombineFn(MakeFedAvgCombiner());
    scribe.pastry().SetDeliverHandler(
        kFlAsyncUpdate,
        [this](const NodeId& key, const Message& msg, int) { OnAsyncUpdate(key, msg); });
    // Replicas only need to hold the checkpoint bytes; the engine harness models the
    // stored state, so receipt is a no-op beyond the traffic/state cost.
    scribe.pastry().SetDeliverHandler(kFlCheckpoint,
                                      [](const NodeId&, const Message&, int) {});
  }
}

void TotoroEngine::SetSpeedFactors(std::vector<double> factors) {
  CHECK_EQ(factors.size(), forest_->size());
  speed_factors_ = std::move(factors);
}

void TotoroEngine::SetComputeThreads(size_t threads) {
  // Joining outstanding tickets first keeps every trainer's happens-before chain
  // intact across the swap; the old pool's destructor then has nothing in flight, and
  // no task holds a replica while the slots are re-sized.
  for (auto& [topic, app] : apps_) {
    (void)topic;
    for (auto& [node, slot] : app->trainers) {
      (void)node;
      if (slot.pending.valid()) {
        slot.pending.Wait();
      }
    }
  }
  pool_ = std::make_unique<ComputePool>(threads);
  for (auto& [topic, app] : apps_) {
    (void)topic;
    app->replicas.Resize(pool_->threads());
  }
}

void TotoroEngine::EnableFailover(FailoverConfig config) {
  CHECK_GT(config.watchdog_interval_ms, 0.0);
  CHECK_GT(config.stall_timeout_ms, config.watchdog_interval_ms);
  failover_config_ = config;
  if (!failover_enabled_) {
    failover_enabled_ = true;
    forest_->pastry().network()->sim()->Schedule(failover_config_.watchdog_interval_ms,
                                                 [this]() { WatchdogTick(); });
  }
}

void TotoroEngine::ReplicateCheckpoint(AppRuntime& app) {
  // The master pushes (weights, round) to its nearest leaf-set neighbors so any of them
  // can seed a successor master.
  PastryNode& master = forest_->scribe(app.master_index).pastry();
  // Read through a const view: a checkpoint changes no table.
  const auto replicas = std::as_const(master).leaf_set().All();
  const uint64_t bytes = app.global_weights.size() * sizeof(float) + 64;
  int sent = 0;
  for (const auto& replica : replicas) {
    if (sent >= failover_config_.checkpoint_replicas) {
      break;
    }
    Message m;
    m.type = kFlCheckpoint;
    m.size_bytes = bytes;
    m.traffic = TrafficClass::kModel;
    m.transport = Transport::kTcp;
    master.SendDirect(replica.host, std::move(m));
    ++sent;
  }
}

void TotoroEngine::WatchdogTick() {
  const double now = forest_->pastry().network()->sim()->Now();
  for (auto& [topic, app] : apps_) {
    (void)topic;
    if (!app->started || app->done) {
      continue;
    }
    if (now - app->last_progress_ms < failover_config_.stall_timeout_ms) {
      continue;
    }
    // Stalled. Either the master died (tree re-elects a new rendezvous root) or a whole
    // round's traffic was lost; both are cured by resuming from the checkpoint at the
    // current root.
    const size_t root = forest_->RootOf(app->topic);
    if (root == SIZE_MAX) {
      continue;  // Tree still re-electing; try again next tick.
    }
    if (root != app->master_index) {
      TLOG_INFO("failover: app %s master moves %zu -> %zu at t=%.0fms",
                app->config.name.c_str(), app->master_index, root, now);
      app->master_index = root;
      app->failovers += 1;
    }
    app->last_progress_ms = now;
    StartRound(*app);
  }
  forest_->pastry().network()->sim()->Schedule(failover_config_.watchdog_interval_ms,
                                               [this]() { WatchdogTick(); });
}

NodeId TotoroEngine::LaunchApp(const FlAppConfig& config, const std::vector<size_t>& workers,
                               std::vector<Dataset> shards, Dataset test_set) {
  CHECK(config.model_factory != nullptr);
  CHECK_EQ(workers.size(), shards.size());
  CHECK(!workers.empty());
  const NodeId topic = MakeAppId(config.name, config.creator_key, config.salt);
  CHECK(apps_.find(topic) == apps_.end());

  forest_->SubscribeAll(topic, workers, subscribe_settle_ms_);
  const size_t master = forest_->RootOf(topic);
  CHECK_NE(master, SIZE_MAX);

  auto app = std::make_unique<AppRuntime>();
  app->config = config;
  app->topic = topic;
  app->master_index = master;
  app->global_model = config.model_factory(rng_.Next());
  app->global_weights = app->global_model->GetWeights();
  app->replicas = ModelReplicas(app->global_model.get(), pool_->threads());
  app->test_examples = test_set.size();
  app->test_chunks = std::move(test_set).Split(kEvalChunkExamples);
  app->result.name = config.name;
  app->result.topic = topic;
  for (size_t w = 0; w < workers.size(); ++w) {
    const size_t node = workers[w];
    CHECK(shards[w].size() > 0);
    // The draw after each trainer seed is unused; it keeps every later draw at the
    // value the committed goldens were recorded with.
    const uint64_t trainer_seed = rng_.Next();
    rng_.Next();
    app->trainers[node].trainer =
        std::make_unique<LocalTrainer>(std::move(shards[w]), speed_factors_[node], trainer_seed);
  }
  if (config.secure_aggregation) {
    // Pairwise masking needs a cohort of at least two, and interior nodes must SUM
    // masked vectors instead of averaging them — the tree's combiner for this topic.
    CHECK(!config.async.has_value());
    CHECK_GE(workers.size(), 2u);
    CHECK_NE(config.participants_per_round, 1u);
    app->secure_seed = rng_.Next();
    forest_->SetCombineFnForTopic(topic, MakeSecureSumCombiner());
  }
  if (config.robust.rule != RobustAggregation::kNone) {
    // Robust rules are not associative, so the tree cannot fold hop by hop: every hop
    // of this application's tree collects individual updates instead (id-sorted, so
    // the root's list is arrival-order independent) and the root applies the reduction
    // once in OnRootAggregate.
    CHECK(!config.async.has_value());
    CHECK(!config.secure_aggregation);
    forest_->SetCombineFnForTopic(topic, MakeCollectCombiner());
  }
  switch (config.selection) {
    case SelectionPolicy::kAll:
      break;
    case SelectionPolicy::kRandom:
      app->selector = std::make_unique<RandomSelector>();
      break;
    case SelectionPolicy::kOortLike:
      app->selector = std::make_unique<OortLikeSelector>();
      break;
  }
  apps_[topic] = std::move(app);
  return topic;
}

void TotoroEngine::StartAll() {
  for (auto& [topic, app] : apps_) {
    (void)topic;
    if (!app->started) {
      app->started = true;
      app->launch_time_ms = forest_->pastry().network()->sim()->Now();
      StartRound(*app);
    }
  }
}

void TotoroEngine::StartRound(AppRuntime& app) {
  app.round += 1;
  app.last_progress_ms = forest_->pastry().network()->sim()->Now();
  // The round span stays open across many virtual ms; allocate its context now so the
  // broadcast (and everything downstream of it) parents to the round, and emit the
  // record when the round closes.
  app.round_start_ms = app.last_progress_ms;
  app.round_trace = GlobalTracer().AllocateContext();
  ScopedTraceContext round_scope(app.round_trace);
  auto payload = std::make_shared<RoundPayload>();
  payload->weights = app.global_weights;
  {
    ProfileScope profile_plan("plan");
    // Participant selection: the application's selection function picks this round's
    // cohort from the subscribed workers.
    if (app.selector != nullptr && app.config.participants_per_round > 0 &&
        app.config.participants_per_round < app.trainers.size()) {
      std::vector<ClientInfo> clients;
      clients.reserve(app.trainers.size());
      for (auto& [node, slot] : app.trainers) {
        // Selection reads post-train state (last_loss); join any still-offloaded task
        // first so the read matches the sequential schedule, where a straggler's Train
        // had already run synchronously at broadcast delivery.
        if (slot.pending.valid()) {
          slot.pending.Wait();
        }
        ClientInfo info;
        info.index = node;
        // Optimistic initialization: untrained clients look maximally useful.
        info.last_loss = slot.trainer->last_loss() > 0.0f ? slot.trainer->last_loss() : 1e6;
        info.speed_factor = slot.trainer->speed_factor();
        clients.push_back(info);
      }
      auto selected = std::make_shared<std::vector<size_t>>(
          app.selector->Select(clients, app.config.participants_per_round, rng_));
      std::sort(selected->begin(), selected->end());
      payload->selected = std::move(selected);
    }
    if (app.config.secure_aggregation) {
      // This round's mask group covers exactly the broadcast cohort; every cut-off
      // straggler later shows up as a missing contributor and is repaired by
      // DropoutCorrection at the root.
      std::vector<uint64_t> cohort;
      if (payload->selected != nullptr) {
        cohort.assign(payload->selected->begin(), payload->selected->end());
      } else {
        cohort.reserve(app.trainers.size());
        for (const auto& [node, slot] : app.trainers) {
          (void)slot;
          cohort.push_back(node);
        }
        std::sort(cohort.begin(), cohort.end());
      }
      app.secure_groups[app.round] = std::make_shared<const SecureAggregationGroup>(
          std::move(cohort), app.secure_seed ^ (app.round * kSecureRoundSeedMix));
      // Bound memory: groups older than a few rounds are only reachable through the
      // shared_ptrs that in-flight training tasks captured.
      while (!app.secure_groups.empty() &&
             app.secure_groups.begin()->first + 8 < app.round) {
        app.secure_groups.erase(app.secure_groups.begin());
      }
    }
  }
  const uint64_t bytes = app.global_weights.size() * sizeof(float);
  {
    ProfileScope profile_disseminate("disseminate");
    forest_->scribe(app.master_index)
        .Broadcast(app.topic, app.round, std::move(payload), bytes);
  }

  if (round_deadline_ms_ > 0.0) {
    app.round_deadline.Cancel();
    const NodeId topic = app.topic;
    const uint64_t round = app.round;
    app.round_deadline = forest_->pastry().network()->sim()->Schedule(
        round_deadline_ms_, [this, topic, round]() {
          auto it = apps_.find(topic);
          if (it == apps_.end() || it->second->done || it->second->round != round) {
            return;  // The round closed normally (or the app finished).
          }
          series_.deadline_expired->Increment();
          TLOG_INFO("app %s round %llu hit the straggler deadline; closing partial",
                    it->second->config.name.c_str(), static_cast<unsigned long long>(round));
          // Partial-aggregation fallback: whatever aggregate reached the master already
          // updated global_weights via OnRootAggregate-less paths (none if the tree
          // stalled); close the round with the current weights and move on.
          EvaluateAndAdvance(*it->second, round);
        });
  }
}

void TotoroEngine::OnBroadcast(size_t node_index, const NodeId& topic, uint64_t round,
                               const ScribeBroadcast& bc) {
  auto it = apps_.find(topic);
  if (it == apps_.end() || it->second->done) {
    return;
  }
  AppRuntime& app = *it->second;
  CHECK(bc.data != nullptr);
  const auto* payload = static_cast<const RoundPayload*>(bc.data.get());
  Network* net = forest_->pastry().network();
  auto trainer_it = app.trainers.find(node_index);
  if (trainer_it == app.trainers.end()) {
    // A subscriber with no trainer is a forged membership — a sybil join injected by
    // the fault layer (legitimate workers always have a trainer slot). For synchronous
    // apps its slot in the tree barrier must close either way: submit the forged
    // update if the sybil provider supplies one, an empty piece otherwise.
    if (app.config.async.has_value()) {
      return;
    }
    AggregationPiece piece;
    piece.data = nullptr;
    piece.weight = 0.0;
    piece.count = 0;
    uint64_t piece_bytes = 16;
    if (!app.config.secure_aggregation && sybil_provider_ != nullptr) {
      std::vector<float> forged;
      double forged_weight = 1.0;
      if (sybil_provider_(topic, round, node_index, payload->weights, forged,
                          forged_weight)) {
        CHECK_EQ(forged.size(), payload->weights.size());
        piece_bytes = forged.size() * sizeof(float);
        if (app.config.robust.rule != RobustAggregation::kNone) {
          auto list = std::make_shared<UpdateListPayload>();
          list->ids = {static_cast<uint64_t>(node_index)};
          list->updates = {WeightedUpdate{std::move(forged), forged_weight}};
          piece.data = std::move(list);
        } else {
          auto forged_payload = std::make_shared<WeightsPayload>();
          forged_payload->weights = std::move(forged);
          piece.data = std::move(forged_payload);
        }
        piece.weight = forged_weight;
        piece.count = 1;
      }
    }
    forest_->scribe(node_index).SubmitUpdate(topic, round, std::move(piece), piece_bytes);
    return;
  }

  const bool selected =
      payload->selected == nullptr ||
      std::binary_search(payload->selected->begin(), payload->selected->end(), node_index);
  if (!selected) {
    if (!app.config.async.has_value()) {
      // Synchronous rounds still need this subscriber's slot in the tree aggregation to
      // close; contribute an empty (zero-weight) piece immediately.
      AggregationPiece empty;
      empty.data = nullptr;
      empty.weight = 0.0;
      empty.count = 0;
      forest_->scribe(node_index).SubmitUpdate(topic, round, std::move(empty), 16);
    }
    return;
  }

  // Covers the training dispatch (selection already passed): joining the previous
  // offload, work accounting, and submitting the compute task.
  ProfileScope profile_train("train");
  TrainerSlot& slot = trainer_it->second;
  // The sequential schedule ran the previous Train to completion before this broadcast
  // was delivered; join any still-offloaded task before reusing the trainer (its model
  // and RNG state must advance in the same order for any thread count).
  if (slot.pending.valid()) {
    slot.pending.Wait();
  }
  LocalTrainer* trainer = slot.trainer.get();

  // Everything the event schedule depends on — the completion stamp, work accounting,
  // the training span — is computed here from inputs available BEFORE training runs,
  // so offloading Train cannot perturb event order, traces or metrics.
  const size_t params = app.global_model->NumParams();
  const size_t examples = app.config.train.batch_size * app.config.train.local_steps;
  const double compute_ms =
      compute_.TrainTimeMs(params, examples, trainer->speed_factor());
  net->metrics().ChargeWork(forest_->scribe(node_index).host(), WorkKind::kFlTask,
                            static_cast<double>(params) * static_cast<double>(examples));

  // Local training covers [now, now + compute_ms] of virtual time on this worker; the
  // context is re-entered in the completion callback so the submitted update (and its
  // up-tree hops) parents to the training span.
  Tracer& tracer = GlobalTracer();
  TraceContext train_ctx;
  if (tracer.enabled()) {
    const double train_start = net->sim()->Now();
    train_ctx = tracer.RecordComplete(
        "engine.local_train", "engine", forest_->scribe(node_index).host(), train_start,
        train_start + compute_ms, tracer.current(),
        {{"round", std::to_string(round)}, {"compute_ms", std::to_string(compute_ms)}});
  }

  // Offload the actual CPU work. The task touches only this trainer's private state
  // (shard, RNG), its slot's replica and immutable inputs — never the thread-local
  // tracer/metrics registries — and secure masking rides along so the per-client
  // O(cohort * dim) PRG work also leaves the simulator thread.
  series_.train_tasks->Increment();
  std::shared_ptr<const SecureAggregationGroup> group;
  if (app.config.secure_aggregation) {
    auto group_it = app.secure_groups.find(round);
    CHECK(group_it != app.secure_groups.end());
    group = group_it->second;
  }
  const FlAppConfig* config = &app.config;
  ModelReplicas* replicas = &app.replicas;
  const ComputeModel compute = compute_;
  std::shared_ptr<const void> broadcast_data = bc.data;  // Keeps RoundPayload alive.
  auto result = std::make_shared<LocalUpdate>();
  ComputePool::Ticket ticket = pool_->Submit(
      [trainer, replicas, config, compute, group, node_index, broadcast_data,
       result](size_t exec_slot) {
        const auto* round_payload = static_cast<const RoundPayload*>(broadcast_data.get());
        *result = trainer->Train(replicas->For(exec_slot), round_payload->weights,
                                 config->train, compute, config->dp, config->compression);
        if (group != nullptr) {
          result->weights = group->MaskUpdate(static_cast<uint64_t>(node_index),
                                              result->weights, result->sample_weight);
        }
      });
  slot.pending = ticket;
  // Both branches rejoin the result with an event at the virtual completion stamp that
  // Wait()s on the ticket, blocking the wall clock (never virtual time) until the task
  // has run. The event's position must not depend on the off-thread result, only on
  // compute_ms and the order of this call, so event order is the same at every thread
  // count.

  if (app.config.async.has_value()) {
    // Asynchronous protocol: route the update straight to the master; no tree barrier.
    net->sim()->Schedule(
        compute_ms,
        [this, node_index, topic, round, train_ctx, ticket, result, broadcast_data]() {
          ticket.Wait();
          LocalUpdate update = std::move(*result);
          ScopedTraceContext scope(train_ctx);
          if (update_interceptor_ != nullptr) {
            const auto* round_payload =
                static_cast<const RoundPayload*>(broadcast_data.get());
            update_interceptor_(topic, round, node_index, round_payload->weights,
                                update.weights, update.sample_weight);
          }
          AsyncUpdatePayload async_payload;
          async_payload.topic = topic;
          async_payload.round = round;
          async_payload.weights = std::move(update.weights);
          async_payload.sample_weight = update.sample_weight;
          Message m;
          m.type = kFlAsyncUpdate;
          m.size_bytes = update.wire_bytes;
          m.traffic = TrafficClass::kGradient;
          m.transport = Transport::kTcp;
          m.SetPayload(std::move(async_payload));
          forest_->scribe(node_index).pastry().Route(topic, std::move(m));
        });
    return;
  }

  const bool secure = group != nullptr;
  const bool robust = app.config.robust.rule != RobustAggregation::kNone;
  net->sim()->Schedule(
      compute_ms, [this, node_index, topic, round, train_ctx, ticket, result, secure, robust,
                   broadcast_data]() {
        ticket.Wait();
        LocalUpdate update = std::move(*result);
        ScopedTraceContext scope(train_ctx);
        if (!secure && update_interceptor_ != nullptr) {
          // Poisoning happens here — on the simulator thread, after the honest train
          // and before the payload is built — so attacks perturb neither the compute
          // schedule nor (for secure apps, where this is skipped) mask cancellation.
          const auto* round_payload =
              static_cast<const RoundPayload*>(broadcast_data.get());
          update_interceptor_(topic, round, node_index, round_payload->weights,
                              update.weights, update.sample_weight);
        }
        AggregationPiece piece;
        if (robust) {
          auto list = std::make_shared<UpdateListPayload>();
          list->ids = {static_cast<uint64_t>(node_index)};
          list->updates =
              {WeightedUpdate{std::move(update.weights), update.sample_weight}};
          piece.data = std::move(list);
        } else {
          auto piece_payload = std::make_shared<WeightsPayload>();
          piece_payload->weights = std::move(update.weights);
          if (secure) {
            piece_payload->contributors = {static_cast<uint64_t>(node_index)};
          }
          piece.data = std::move(piece_payload);
        }
        piece.weight = update.sample_weight;
        piece.count = 1;
        forest_->scribe(node_index).SubmitUpdate(topic, round, std::move(piece),
                                                 update.wire_bytes);
      });
}

void TotoroEngine::OnRootAggregate(const NodeId& topic, uint64_t round,
                                   const AggregationPiece& total) {
  auto it = apps_.find(topic);
  if (it == apps_.end() || it->second->done) {
    return;
  }
  AppRuntime& app = *it->second;
  if (round != app.round || app.config.async.has_value()) {
    return;  // Stale aggregate from a straggler cut-off of an earlier round.
  }
  ProfileScope profile_aggregate("aggregate");
  if (total.data != nullptr && app.config.robust.rule != RobustAggregation::kNone) {
    // Robust path: the tree delivered the concatenated per-contributor updates
    // (id-sorted, arrival-order independent); apply the defense once, here.
    const auto* list = static_cast<const UpdateListPayload*>(total.data.get());
    CHECK_EQ(list->ids.size(), list->updates.size());
    std::vector<WeightedUpdate> clean;
    clean.reserve(list->updates.size());
    uint64_t rejected = 0;
    for (const WeightedUpdate& u : list->updates) {
      if (AllFinite(u.weights) && std::isfinite(u.sample_weight) &&
          u.sample_weight > 0.0) {
        clean.push_back(u);
      } else {
        ++rejected;
      }
    }
    series_.defense_collected->Increment(list->updates.size());
    series_.defense_rejected->Increment(rejected);
    series_.defense_rounds->Increment();
    if (!clean.empty()) {
      switch (app.config.robust.rule) {
        case RobustAggregation::kNone:
          break;  // Unreachable; the branch condition excludes it.
        case RobustAggregation::kCoordinateMedian:
          app.global_weights = CoordinateMedian(clean);
          break;
        case RobustAggregation::kTrimmedMean:
          app.global_weights = TrimmedMean(clean, app.config.robust.trim_fraction);
          break;
        case RobustAggregation::kNormClip: {
          size_t clipped = 0;
          app.global_weights = NormClippedMean(clean, app.global_weights,
                                               app.config.robust.clip_norm, &clipped);
          series_.defense_clipped->Increment(clipped);
          break;
        }
      }
    }
    EvaluateAndAdvance(app, round);
    return;
  }
  if (total.data != nullptr) {
    const auto* merged = static_cast<const WeightsPayload*>(total.data.get());
    if (app.config.secure_aggregation) {
      auto group_it = app.secure_groups.find(round);
      CHECK(group_it != app.secure_groups.end());
      const SecureAggregationGroup& group = *group_it->second;
      std::vector<float> sum = merged->weights;
      const std::vector<uint64_t>& survivors = merged->contributors;
      if (survivors.size() < group.size()) {
        // A straggler deadline or aggregation timeout cut part of the cohort, so the
        // survivors' masks toward the dropped participants did not cancel. Run the
        // mask-recovery round: subtract their net contribution before unmasking.
        const std::vector<double> correction = group.DropoutCorrection(survivors, sum.size());
        for (size_t i = 0; i < sum.size(); ++i) {
          sum[i] = static_cast<float>(static_cast<double>(sum[i]) - correction[i]);
        }
        series_.secure_corrections->Increment();
        series_.secure_dropped->Increment(group.size() - survivors.size());
      }
      app.global_weights = FinalizeSecureAverage(sum, total.weight);
    } else {
      app.global_weights = merged->weights;
    }
  }
  // A null total (every contribution timed out or no worker was selected) keeps the
  // previous global weights; the round still closes.
  EvaluateAndAdvance(app, round);
}

void TotoroEngine::OnAsyncUpdate(const NodeId& key, const Message& msg) {
  const auto& payload = msg.As<AsyncUpdatePayload>();
  auto it = apps_.find(payload.topic);
  if (it == apps_.end() || it->second->done || !it->second->config.async.has_value()) {
    return;
  }
  (void)key;
  AppRuntime& app = *it->second;
  const AsyncConfig& async = *app.config.async;
  CHECK_EQ(payload.weights.size(), app.global_weights.size());
  // Staleness = re-broadcasts since the model this update trained against. An update
  // from the current round is fresh (0); older ones get the FedBuff/Totoro+-style
  // discount 1/(1+s)^exponent on the mixing rate.
  const uint64_t staleness = payload.round <= app.round ? app.round - payload.round : 0;
  series_.async_staleness->Observe(static_cast<double>(staleness));
  double mix = async.mix_alpha;
  if (async.staleness_exponent > 0.0 && staleness > 0) {
    mix /= std::pow(1.0 + static_cast<double>(staleness), async.staleness_exponent);
  }
  // FedAsync mixing: w <- (1 - alpha) w + alpha w_update.
  const float alpha = static_cast<float>(mix);
  KLerp(app.global_weights.data(), payload.weights.data(), alpha,
        app.global_weights.size());
  app.async_updates_received += 1;
  forest_->pastry().network()->metrics().ChargeWork(
      forest_->scribe(app.master_index).host(), WorkKind::kFlTask,
      static_cast<double>(app.global_weights.size()));
  if (app.async_updates_received % async.rebroadcast_every == 0) {
    EvaluateAndAdvance(app, app.round);
  }
}

void TotoroEngine::EvaluateAndAdvance(AppRuntime& app, uint64_t round) {
  app.round_deadline.Cancel();
  bool finished = false;
  {
    // Scope closes before the next round's plan/disseminate phases open.
    ProfileScope profile_evaluate("evaluate");
    Network* net = forest_->pastry().network();
    // Evaluation is FL-side master work.
    net->metrics().ChargeWork(forest_->scribe(app.master_index).host(), WorkKind::kFlTask,
                              static_cast<double>(app.global_model->NumParams()) *
                                  static_cast<double>(app.test_examples));
    // The chunks run on the pool while this event waits (and helps), so no event is
    // added and virtual time stands still.
    const double accuracy =
        ChunkedAccuracy(*pool_, app.replicas, app.global_weights, app.test_chunks);
    const double now = net->sim()->Now();
    app.last_progress_ms = now;
    if (app.round_trace.valid()) {
      GlobalTracer().EmitSpan(app.round_trace, /*parent_span_id=*/0, "engine.round", "engine",
                              forest_->scribe(app.master_index).host(), app.round_start_ms,
                              now,
                              {{"app", app.config.name},
                               {"round", std::to_string(round)},
                               {"accuracy", std::to_string(accuracy)}});
      app.round_trace = TraceContext{};
    }
    series_.round_duration->Observe(now - app.round_start_ms);
    if (failover_enabled_) {
      ReplicateCheckpoint(app);
    }
    TLOG_INFO("app %s round %llu accuracy %.4f at t=%.1fms", app.config.name.c_str(),
              static_cast<unsigned long long>(round), accuracy, now);
    finished =
        RecordRound(app.config, now - app.launch_time_ms, round, accuracy, &app.result);
  }
  if (finished) {
    app.done = true;
    return;
  }
  StartRound(app);
}

bool TotoroEngine::AllDone() const {
  for (const auto& [topic, app] : apps_) {
    (void)topic;
    if (!app->done) {
      return false;
    }
  }
  return true;
}

bool TotoroEngine::RunToCompletion(double max_virtual_ms) {
  ProfileScope profile_run("engine_run");
  Simulator* sim = forest_->pastry().network()->sim();
  const double deadline = sim->Now() + max_virtual_ms;
  while (!AllDone() && !sim->Idle() && sim->Now() < deadline) {
    sim->Run(20000);
  }
  return AllDone();
}

const AppResult& TotoroEngine::result(const NodeId& topic) const {
  auto it = apps_.find(topic);
  CHECK(it != apps_.end());
  return it->second->result;
}

double ChunkedAccuracy(ComputePool& pool, ModelReplicas& replicas,
                       std::span<const float> weights, const std::vector<Dataset>& chunks) {
  std::vector<long long> correct(chunks.size(), 0);
  std::vector<ComputePool::Ticket> tickets;
  tickets.reserve(chunks.size());
  size_t examples = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    examples += chunks[c].size();
    tickets.push_back(pool.Submit([&replicas, weights, &chunks, &correct, c](size_t slot) {
      Model& model = replicas.For(slot);
      model.SetWeights(weights);
      const double size = static_cast<double>(chunks[c].size());
      correct[c] = std::llround(model.Accuracy(chunks[c]) * size);
    }));
  }
  // Every task writes into `correct`, so join them all before any exception leaves.
  std::exception_ptr error;
  long long total = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    try {
      tickets[c].Wait();
    } catch (...) {
      error = error != nullptr ? error : std::current_exception();
    }
    total += correct[c];
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
  CHECK_GT(examples, 0u);
  return static_cast<double>(total) / static_cast<double>(examples);
}

std::vector<AppResult> TotoroEngine::AllResults() const {
  std::vector<AppResult> out;
  out.reserve(apps_.size());
  for (const auto& [topic, app] : apps_) {
    (void)topic;
    out.push_back(app->result);
  }
  return out;
}

}  // namespace totoro
