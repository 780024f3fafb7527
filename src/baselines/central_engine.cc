#include "src/baselines/central_engine.h"

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/fl/aggregation.h"

namespace totoro {
namespace {

enum CentralMsgType : int {
  kCentralModel = 300,         // To a client: global weights for a round.
  kCentralUpdate = 301,        // To the server: a client's (star) or an edge's update.
  kCentralModelToEdge = 302,   // Server -> edge server: weights to relay to its clients.
  kCentralUpdateToEdge = 303,  // Client -> its edge server: local update.
};

// Per-1k-parameter parts of the coordinator's service times (serialization, averaging).
constexpr double kSetupMsPerKparam = 0.4;
constexpr double kAggregateMsPerKparam = 0.15;
// An edge server's own cost per client update; edges work in parallel, not on the queue.
constexpr double kEdgeAggregateMs = 3.0;
constexpr double kEdgeBandwidthBytesPerMs = 62500.0;    // 500 Mbit/s.
constexpr double kClientBandwidthBytesPerMs = 12500.0;  // 100 Mbit/s.
constexpr double kLatencyLoMs = 2.0;
constexpr double kLatencyHiMs = 40.0;
constexpr ComputeModel kCompute{};

}  // namespace

// Payload of every message: weights plus addressing metadata.
struct CentralizedEngine::Payload {
  NodeId topic;
  uint64_t round = 0;
  std::vector<float> weights;
  double sample_weight = 0.0;
};

struct CentralizedEngine::AppRuntime {
  FlAppConfig config;
  NodeId topic;
  // The app's one model: every client trains on it and every round evaluates on it,
  // inline. Each use loads its weights first, so nothing carries over between uses
  // (the replica contract in src/ml/model.h).
  std::unique_ptr<Model> model;
  std::vector<float> global_weights;
  Dataset test_set{1, 2};
  std::vector<size_t> clients;
  std::map<size_t, std::unique_ptr<LocalTrainer>> trainers;
  // With edge servers: how many of this app's clients hang off each edge, and the updates
  // each edge has buffered this round. Ordered: the model fans out per edge in walk order.
  std::map<size_t, size_t> clients_per_edge;
  std::map<size_t, std::vector<WeightedUpdate>> edge_buffers;
  uint64_t round = 0;
  size_t pending_updates = 0;  // Updates the server still waits for this round.
  std::vector<WeightedUpdate> received;
  double launch_time_ms = 0.0;
  bool started = false;
  bool done = false;
  AppResult result;
};

// Server, edge servers and clients are all Nodes; the message type picks the role.
class CentralizedEngine::Node : public Host {
 public:
  Node(CentralizedEngine* engine, HostId id) : engine_(engine), id_(id) {}
  void HandleMessage(const Message& msg) override {
    switch (msg.type) {
      case kCentralModel:
        engine_->OnModelAtClient(id_ - 1 - engine_->config_.num_edge_servers, msg);
        break;
      case kCentralUpdate:
        engine_->OnUpdateAtServer(msg);
        break;
      case kCentralModelToEdge:
        engine_->OnModelAtEdge(id_ - 1, msg);
        break;
      case kCentralUpdateToEdge:
        engine_->OnUpdateAtEdge(id_ - 1, msg);
        break;
      default:
        CHECK(false);
    }
  }

 private:
  CentralizedEngine* engine_;
  HostId id_;
};

CentralizedEngine::CentralizedEngine(Simulator* sim, CentralConfig config, size_t num_clients,
                                     uint64_t seed)
    : sim_(sim), config_(config), rng_(seed) {
  NetworkConfig net_config;
  net_config.default_bandwidth_bytes_per_ms = kClientBandwidthBytesPerMs;
  network_ = std::make_unique<Network>(
      sim_, std::make_unique<PairwiseUniformLatency>(kLatencyLoMs, kLatencyHiMs, seed ^ 0xBA5E),
      net_config);
  const size_t num_hosts = 1 + config_.num_edge_servers + num_clients;
  network_->ReserveHosts(num_hosts);
  nodes_.reserve(num_hosts);
  for (size_t i = 0; i < num_hosts; ++i) {
    nodes_.push_back(std::make_unique<Node>(this, static_cast<HostId>(i)));
    CHECK_EQ(network_->AddHost(nodes_.back().get()), static_cast<HostId>(i));
  }
  network_->SetHostBandwidth(kServer, config_.server_bandwidth_bytes_per_ms);
  for (size_t e = 0; e < config_.num_edge_servers; ++e) {
    network_->SetHostBandwidth(EdgeHost(e), kEdgeBandwidthBytesPerMs);
  }
}

CentralizedEngine::~CentralizedEngine() = default;

NodeId CentralizedEngine::LaunchApp(const FlAppConfig& config,
                                    const std::vector<size_t>& clients,
                                    std::vector<Dataset> shards, Dataset test_set) {
  CHECK(config.model_factory != nullptr);
  CHECK_EQ(clients.size(), shards.size());
  CHECK(!clients.empty());
  // Policies the baseline does not implement fail here instead of silently running
  // plain FedAvg over every client.
  CHECK(!config.async.has_value());
  CHECK(!config.secure_aggregation);
  CHECK(config.robust.rule == RobustAggregation::kNone);
  CHECK_EQ(config.participants_per_round, 0u);
  const NodeId topic = MakeAppId(config.name, config.creator_key, config.salt);
  CHECK(apps_.find(topic) == apps_.end());
  auto app = std::make_unique<AppRuntime>();
  app->config = config;
  app->topic = topic;
  app->model = config.model_factory(rng_.Next());
  app->global_weights = app->model->GetWeights();
  app->test_set = std::move(test_set);
  app->clients = clients;
  app->result.name = config.name;
  app->result.topic = topic;
  for (size_t i = 0; i < clients.size(); ++i) {
    CHECK_LT(clients[i], nodes_.size() - 1 - config_.num_edge_servers);
    // The draw after each trainer seed is unused; it keeps every later draw at the
    // value the committed goldens were recorded with.
    const uint64_t trainer_seed = rng_.Next();
    rng_.Next();
    app->trainers[clients[i]] =
        std::make_unique<LocalTrainer>(std::move(shards[i]), 1.0, trainer_seed);
    if (config_.num_edge_servers > 0) {
      ++app->clients_per_edge[clients[i] % config_.num_edge_servers];
    }
  }
  apps_[topic] = std::move(app);
  return topic;
}

void CentralizedEngine::StartAll() {
  for (auto& [topic, app] : apps_) {
    (void)topic;
    if (!app->started) {
      app->started = true;
      app->launch_time_ms = sim_->Now();
      StartRound(*app);
    }
  }
}

CentralizedEngine::AppRuntime* CentralizedEngine::LiveApp(const NodeId& topic) {
  auto it = apps_.find(topic);
  return it == apps_.end() || it->second->done ? nullptr : it->second.get();
}

void CentralizedEngine::Send(int type, HostId src, HostId dst, uint64_t size_bytes,
                             Payload payload) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.size_bytes = size_bytes;
  m.traffic = type == kCentralModel || type == kCentralModelToEdge ? TrafficClass::kModel
                                                                   : TrafficClass::kGradient;
  m.transport = Transport::kTcp;
  m.SetPayload(std::move(payload));
  network_->Send(std::move(m));
}

void CentralizedEngine::EnqueueCoordinatorWork(double service_ms, EventFn fn) {
  // One logical coordinator thread: work is served FCFS, which is exactly the queueing
  // delay §7.4 attributes the baselines' slowdown to.
  const SimTime start = std::max(coordinator_free_at_, sim_->Now());
  coordinator_free_at_ = start + service_ms;
  // Charge in the same work-unit scale as client training (units per ms of compute).
  network_->metrics().ChargeWork(kServer, WorkKind::kFlTask,
                                 service_ms * kCompute.work_units_per_ms);
  sim_->ScheduleAt(coordinator_free_at_, std::move(fn));
}

void CentralizedEngine::StartRound(AppRuntime& app) {
  app.round += 1;
  app.pending_updates =
      config_.num_edge_servers == 0 ? app.clients.size() : app.clients_per_edge.size();
  app.received.clear();
  app.edge_buffers.clear();
  const double kparams = static_cast<double>(app.global_weights.size()) / 1000.0;
  EnqueueCoordinatorWork(config_.setup_ms_const + kSetupMsPerKparam * kparams,
                         [this, topic = app.topic]() {
                           AppRuntime* live = LiveApp(topic);
                           if (live != nullptr) {
                             BroadcastModel(*live);
                           }
                         });
}

void CentralizedEngine::BroadcastModel(const AppRuntime& app) {
  // Hub-and-spoke: one unicast per client, or per edge server in use, all squeezed
  // through the server uplink.
  const uint64_t bytes = app.global_weights.size() * sizeof(float);
  if (config_.num_edge_servers == 0) {
    for (size_t client : app.clients) {
      Send(kCentralModel, kServer, ClientHost(client), bytes,
           Payload{app.topic, app.round, app.global_weights});
    }
    return;
  }
  for (const auto& [edge, count] : app.clients_per_edge) {
    (void)count;
    Send(kCentralModelToEdge, kServer, EdgeHost(edge), bytes,
         Payload{app.topic, app.round, app.global_weights});
  }
}

void CentralizedEngine::OnModelAtEdge(size_t edge, const Message& msg) {
  const auto& payload = msg.As<Payload>();
  const AppRuntime* app = LiveApp(payload.topic);
  if (app == nullptr) {
    return;
  }
  // The edge relays the model to its clients of this app.
  for (size_t client : app->clients) {
    if (client % config_.num_edge_servers == edge) {
      Send(kCentralModel, EdgeHost(edge), ClientHost(client), msg.size_bytes, payload);
    }
  }
}

void CentralizedEngine::OnModelAtClient(size_t client, const Message& msg) {
  const auto& payload = msg.As<Payload>();
  AppRuntime* app = LiveApp(payload.topic);
  if (app == nullptr) {
    return;
  }
  auto trainer_it = app->trainers.find(client);
  if (trainer_it == app->trainers.end()) {
    return;
  }
  LocalUpdate update = trainer_it->second->Train(*app->model, payload.weights,
                                                 app->config.train, kCompute, app->config.dp,
                                                 app->config.compression);
  const HostId host = ClientHost(client);
  network_->metrics().ChargeWork(
      host, WorkKind::kFlTask,
      static_cast<double>(app->model->NumParams()) *
          static_cast<double>(app->config.train.batch_size * app->config.train.local_steps));
  Payload reply{app->topic, payload.round, std::move(update.weights), update.sample_weight};
  const uint64_t wire_bytes = update.wire_bytes;
  const bool star = config_.num_edge_servers == 0;
  const int type = star ? kCentralUpdate : kCentralUpdateToEdge;
  const HostId parent = star ? kServer : EdgeHost(client % config_.num_edge_servers);
  sim_->Schedule(update.compute_time_ms,
                 [this, type, host, parent, wire_bytes, reply = std::move(reply)]() mutable {
                   Send(type, host, parent, wire_bytes, std::move(reply));
                 });
}

void CentralizedEngine::OnUpdateAtEdge(size_t edge, const Message& msg) {
  const auto& payload = msg.As<Payload>();
  AppRuntime* app = LiveApp(payload.topic);
  if (app == nullptr || payload.round != app->round) {
    return;
  }
  network_->metrics().ChargeWork(EdgeHost(edge), WorkKind::kFlTask,
                                 kEdgeAggregateMs * kCompute.work_units_per_ms);
  auto& buffer = app->edge_buffers[edge];
  buffer.push_back(WeightedUpdate{payload.weights, payload.sample_weight});
  if (buffer.size() < app->clients_per_edge.at(edge)) {
    return;
  }
  // Partial aggregation at the edge, then one update up to the server.
  Payload up{app->topic, app->round, FederatedAverage(buffer)};
  for (const auto& u : buffer) {
    up.sample_weight += u.sample_weight;
  }
  buffer.clear();
  const uint64_t bytes = up.weights.size() * sizeof(float);
  Send(kCentralUpdate, EdgeHost(edge), kServer, bytes, std::move(up));
}

void CentralizedEngine::OnUpdateAtServer(const Message& msg) {
  const auto& payload = msg.As<Payload>();
  AppRuntime* app = LiveApp(payload.topic);
  if (app == nullptr || payload.round != app->round) {
    return;  // Stale.
  }
  // Each update's aggregation is one serial coordinator task.
  const double kparams = static_cast<double>(app->global_weights.size()) / 1000.0;
  // Copy the pieces the coordinator needs; the message dies after this handler.
  WeightedUpdate update{payload.weights, payload.sample_weight};
  EnqueueCoordinatorWork(config_.aggregate_ms_const + kAggregateMsPerKparam * kparams,
                         [this, topic = app->topic, update = std::move(update)]() mutable {
                           AppRuntime* live = LiveApp(topic);
                           if (live == nullptr) {
                             return;
                           }
                           live->received.push_back(std::move(update));
                           CHECK_GT(live->pending_updates, 0u);
                           live->pending_updates -= 1;
                           if (live->pending_updates == 0) {
                             FinishRound(*live);
                           }
                         });
}

void CentralizedEngine::FinishRound(AppRuntime& app) {
  app.global_weights = FederatedAverage(app.received);
  app.received.clear();
  app.model->SetWeights(app.global_weights);
  network_->metrics().ChargeWork(kServer, WorkKind::kFlTask,
                                 static_cast<double>(app.model->NumParams()) *
                                     static_cast<double>(app.test_set.size()));
  const double accuracy = app.model->Accuracy(app.test_set);
  const double now = sim_->Now();
  TLOG_INFO("central app %s round %llu accuracy %.4f at t=%.1fms", app.config.name.c_str(),
            static_cast<unsigned long long>(app.round), accuracy, now);
  if (RecordRound(app.config, now - app.launch_time_ms, app.round, accuracy, &app.result)) {
    app.done = true;
    return;
  }
  StartRound(app);
}

void CentralizedEngine::FailEdgeServer(size_t edge_index) {
  CHECK_LT(edge_index, config_.num_edge_servers);
  network_->SetHostUp(EdgeHost(edge_index), false);
}

bool CentralizedEngine::AllDone() const {
  for (const auto& [topic, app] : apps_) {
    (void)topic;
    if (!app->done) {
      return false;
    }
  }
  return true;
}

bool CentralizedEngine::RunToCompletion(double max_virtual_ms) {
  const double deadline = sim_->Now() + max_virtual_ms;
  while (!AllDone() && !sim_->Idle() && sim_->Now() < deadline) {
    sim_->Run(20000);
  }
  return AllDone();
}

std::vector<AppResult> CentralizedEngine::AllResults() const {
  std::vector<AppResult> out;
  out.reserve(apps_.size());
  for (const auto& [topic, app] : apps_) {
    (void)topic;
    out.push_back(app->result);
  }
  return out;
}

const AppResult& CentralizedEngine::result(const NodeId& topic) const {
  auto it = apps_.find(topic);
  CHECK(it != apps_.end());
  return it->second->result;
}

}  // namespace totoro
