// Builder and test harness for a whole Pastry overlay.
//
// Two construction paths:
//  - JoinAll(): every node joins through the protocol (JOIN routed to rendezvous, state
//    transfer, announce). Faithful but O(N log N) messages — used for protocol tests and
//    small/medium experiments.
//  - BuildOracle(): installs the steady-state routing state directly from global
//    knowledge: exact leaf sets, and in each routing-table slot the proximity-closest
//    of up to 4 candidates sampled from the matching id interval. This lets 100k-node
//    experiments skip the join phase the paper's testbed also amortized away.
//
// The class also owns churn helpers (fail a node set, heal) and ground-truth queries
// (closest live node to a key) used to validate routing correctness in tests.
#ifndef SRC_DHT_PASTRY_NETWORK_H_
#define SRC_DHT_PASTRY_NETWORK_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/dht/pastry_node.h"

namespace totoro {

class PastryNetwork {
 public:
  PastryNetwork(Network* net, PastryConfig config);
  // Nodes refer to config() rather than copying it, so the network never moves.
  PastryNetwork(const PastryNetwork&) = delete;
  PastryNetwork& operator=(const PastryNetwork&) = delete;

  // Creates a node with the given id (or a random one) and registers it with the
  // network. Returns its index (see node()), which is its HostId: the Network must hold
  // no other hosts, or AddNode CHECK-fails.
  size_t AddNode(NodeId id);
  size_t AddRandomNode(Rng& rng);

  // Pre-sizes node storage, lookup maps, and the underlying network's host table for a
  // topology whose final size is known (benches, 100k-node scale runs).
  void Reserve(size_t num_nodes);

  // The node of host `host` (= its index).
  PastryNode& node(HostId host) { return *nodes_[host]; }
  const PastryNode& node(HostId host) const { return *nodes_[host]; }
  size_t size() const { return nodes_.size(); }

  PastryNode* FindById(const NodeId& id);

  // Installs converged routing state into every node from global knowledge, drawing
  // the routing-table samples from `rng`. It runs on min(AvailableCpus(), size() / 4096)
  // threads, the caller included, which install 1024-node chunks of id order round-robin
  // and call the network's LatencyModel concurrently. The installed state, the per-host
  // work and state-byte accounting, and the end state of `rng` are the same at every
  // thread count.
  void BuildOracle(Rng& rng);
  // BuildOracle on exactly `workers` threads (clamped to [1, chunks]), for tests that
  // check the thread-count independence.
  void BuildOracleForTest(Rng& rng, size_t workers);

  // Joins all nodes through the protocol, one at a time (first node bootstraps alone).
  // Runs the simulator to quiescence between joins.
  void JoinAll();

  // Marks `count` distinct random live nodes as failed (network down). Returns them.
  std::vector<PastryNode*> FailRandomNodes(size_t count, Rng& rng);
  void Heal(PastryNode& node);

  // Ground truth: the live node numerically closest to `key`.
  PastryNode* ClosestLiveNode(const NodeId& key);

  Network* network() { return net_; }
  const PastryConfig& config() const { return config_; }

 private:
  void BuildOracleOn(Rng& rng, size_t workers);

  Network* net_;
  PastryConfig config_;
  std::vector<std::unique_ptr<PastryNode>> nodes_;  // Indexed by HostId.
  std::unordered_map<U128, PastryNode*, U128Hash> by_id_;
};

}  // namespace totoro

#endif  // SRC_DHT_PASTRY_NETWORK_H_
