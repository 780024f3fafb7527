// Coordinator-based FL baselines of Table 1: the centralized star, modelled after
// OpenFL / FedScale's server-client design, and the client-edge-cloud tree (e.g. Liu et
// al. 2020).
//
// One parameter-server host runs the Coordinator, Selector and Aggregators of Fig. 2.
// Every application shares that single server: model broadcast is k unicasts through the
// server's uplink, every client update crosses the server's downlink, and — the paper's
// key observation (§7.4) — the logically central coordinator serializes per-application
// work (round setup, each update's aggregation) on one queue, first-come first-served.
// With many concurrent applications that queue is what makes total training time grow,
// which Totoro's per-application masters avoid.
//
// With num_edge_servers > 0 a layer of edge servers sits between the server (the cloud)
// and the clients: the model goes cloud -> edge -> clients, and each edge averages its
// clients' updates and sends one update up. The edge layer offloads the cloud's downlink,
// but the single coordinator stays, and every edge server is a static single point of
// failure for its client group — the two weaknesses §3 attributes to this class.
#ifndef SRC_BASELINES_CENTRAL_ENGINE_H_
#define SRC_BASELINES_CENTRAL_ENGINE_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/app.h"
#include "src/sim/network.h"

namespace totoro {

struct CentralConfig {
  // Constant parts of the serial coordinator service times: RPC handling, selection and
  // checkpointing, paid per operation regardless of model size. central_engine.cc adds a
  // per-1k-parameter part for serialization and averaging.
  double setup_ms_const = 30.0;     // Round setup / dissemination handling.
  double aggregate_ms_const = 5.0;  // Per update folded in.
  // The server is provisioned better than an edge node but is still one box.
  double server_bandwidth_bytes_per_ms = 125000.0;  // 1 Gbit/s.
  // 0: the star, every client talks to the server. E > 0: the client-edge-cloud tree,
  // with client c attached to edge server c % E.
  size_t num_edge_servers = 0;
};

class CentralizedEngine {
 public:
  CentralizedEngine(Simulator* sim, CentralConfig config, size_t num_clients, uint64_t seed);
  ~CentralizedEngine();

  // Launches an application on the given client indices (parallel to shards). The
  // baseline runs synchronous FedAvg over every client and applies the app's dp and
  // compression; it CHECK-fails on the per-app policies it does not implement (async,
  // secure_aggregation, robust.rule, participants_per_round).
  NodeId LaunchApp(const FlAppConfig& config, const std::vector<size_t>& clients,
                   std::vector<Dataset> shards, Dataset test_set);

  void StartAll();
  bool RunToCompletion(double max_virtual_ms = 1e12);
  bool AllDone() const;
  std::vector<AppResult> AllResults() const;
  const AppResult& result(const NodeId& topic) const;

  // Cuts an edge server off the network: its client group's updates never reach the
  // cloud, so every round that needs them stalls.
  void FailEdgeServer(size_t edge_index);

  Network& network() { return *network_; }

 private:
  class Node;
  struct Payload;
  struct AppRuntime;

  // Host ids: the server is 0, edge server e is 1 + e, client c is 1 + E + c.
  static constexpr HostId kServer = 0;
  HostId EdgeHost(size_t edge) const { return static_cast<HostId>(1 + edge); }
  HostId ClientHost(size_t client) const {
    return static_cast<HostId>(1 + config_.num_edge_servers + client);
  }

  // The app `topic` names, or nullptr once it is done: late messages and queued work
  // for a finished app are dropped.
  AppRuntime* LiveApp(const NodeId& topic);
  void Send(int type, HostId src, HostId dst, uint64_t size_bytes, Payload payload);
  void StartRound(AppRuntime& app);
  void BroadcastModel(const AppRuntime& app);
  void OnModelAtEdge(size_t edge, const Message& msg);
  void OnModelAtClient(size_t client, const Message& msg);
  void OnUpdateAtEdge(size_t edge, const Message& msg);
  void OnUpdateAtServer(const Message& msg);
  void FinishRound(AppRuntime& app);
  // Enqueues serial coordinator work; `fn` runs when the coordinator reaches it.
  void EnqueueCoordinatorWork(double service_ms, EventFn fn);

  Simulator* sim_;
  CentralConfig config_;
  Rng rng_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<Node>> nodes_;  // Indexed by HostId.
  SimTime coordinator_free_at_ = 0.0;
  // Ordered map: round scheduling iterates apps_, so walk order must be stable.
  std::map<U128, std::unique_ptr<AppRuntime>> apps_;
};

}  // namespace totoro

#endif  // SRC_BASELINES_CENTRAL_ENGINE_H_
