// A Pastry DHT node: routing state + join protocol + keep-alive failure handling.
//
// This is the Layer-1 building block of Totoro (§4.2). Each node owns a routing table,
// leaf set and neighborhood set, and offers the classic Pastry API to upper layers:
//
//   Route(key, msg)       route msg to the live node numerically closest to key
//   SetDeliverHandler     invoked at the destination node
//   SetForwardHandler     invoked at every intermediate node (may consume the message)
//
// The pub/sub forest (Layer 2) is built entirely on these three calls. Failure handling
// follows §4.5: leaf-set members exchange keep-alives; a missed ack removes the node
// everywhere and triggers leaf-set repair via the surviving members, and upper layers
// are notified through the failure handler so they can re-JOIN their trees.
#ifndef SRC_DHT_PASTRY_NODE_H_
#define SRC_DHT_PASTRY_NODE_H_

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/dht/leaf_set.h"
#include "src/dht/messages.h"
#include "src/dht/neighborhood_set.h"
#include "src/dht/node_id.h"
#include "src/dht/routing_table.h"
#include "src/sim/network.h"

namespace totoro {

struct PastryConfig {
  int bits_per_digit = 4;      // b; routing table has 2^b - 1 usable columns per row.
  int leaf_set_size = 24;      // L (paper's EC2 config).
  int neighborhood_size = 16;  // M.
  // Keep-alives also probe suspects: hosts ReportDead removed (see AddSuspect).
  bool enable_keepalive = false;
  double keepalive_interval_ms = 500.0;
  double keepalive_timeout_ms = 1600.0;
};

class PastryNode : public Host {
 public:
  // Invoked at the destination of a routed message.
  using DeliverFn = std::function<void(const NodeId& key, const Message& inner, int hops)>;
  // Invoked at every node a routed message passes through (including origin), before
  // forwarding. Return false to consume the message (stop routing). `next_hop` is the
  // host the envelope would be forwarded to (or the local host if this node delivers).
  // The handler may rewrite `inner` (Scribe rewrites the JOIN child pointer per hop).
  using ForwardFn = std::function<bool(const NodeId& key, Message& inner, HostId next_hop)>;
  // Invoked when a node is detected dead (keep-alive timeout or explicit report).
  using FailureFn = std::function<void(const NodeId& id, HostId host)>;

  // `config` is shared, not copied: it must outlive the node (PastryNetwork owns it).
  PastryNode(Network* net, NodeId id, const PastryConfig& config);

  NodeId id() const { return routing_table_.self(); }
  HostId host() const { return host_; }
  bool alive() const { return net_->IsUp(host_); }
  Network* net() { return net_; }

  // A caller may write through a non-const table reference, so taking one counts as a
  // table change (it empties the Learn memo). Finish the writes before the next Learn.
  RoutingTable& routing_table() {
    TablesChanged();
    return routing_table_;
  }
  const RoutingTable& routing_table() const { return routing_table_; }
  LeafSet& leaf_set() {
    TablesChanged();
    return leaf_set_;
  }
  const LeafSet& leaf_set() const { return leaf_set_; }
  NeighborhoodSet& neighborhood_set() {
    TablesChanged();
    return neighborhood_set_;
  }
  const NeighborhoodSet& neighborhood_set() const { return neighborhood_set_; }
  const PastryConfig& config() const { return config_; }

  // Registers a deliver/forward handler for inner messages of type `app_type`.
  void SetDeliverHandler(int app_type, DeliverFn fn);
  void SetForwardHandler(int app_type, ForwardFn fn);
  void SetFailureHandler(FailureFn fn) { failure_fn_ = std::move(fn); }

  // Administrator's packet-wise boundary control (§4.2): before any envelope is
  // forwarded or delivered, the filter inspects its key; returning false drops the
  // packet at this node. Used with rings::IsolateZoneBoundaryPolicy to keep
  // zone-restricted applications' control flows inside their edge site.
  using EgressFilterFn = std::function<bool(const NodeId& key)>;
  void SetEgressFilter(EgressFilterFn fn) { egress_filter_ = std::move(fn); }

  // Routes `inner` toward the node whose id is numerically closest to `key`.
  void Route(const NodeId& key, Message inner);

  // Sends a message directly (one hop, no overlay routing).
  void SendDirect(HostId dst, Message msg);

  // Protocol join through `bootstrap` (must be a live overlay member's host).
  void Join(HostId bootstrap);

  // Adds a node to local state (oracle bootstrap or gossip). A bulk build passes
  // `staged`, which takes the routing-table offer in the table's place (see
  // RoutingTable::DenseRows), and `in_leaf_set` when LeafSet::AssignRing placed `entry`.
  // A node with keep-alive state memoizes unstaged offers that changed nothing (see
  // KeepAlive::memo_count).
  void Learn(const RouteEntry& entry, RoutingTable::DenseRows* staged = nullptr,
             bool in_leaf_set = false);

  // This node's latency to a host, as the routing table's locality tie-break asks.
  ProximityFn proximity() const;

  // Removes a dead node from all local state and notifies the failure handler.
  void ReportDead(const NodeId& id, HostId host);

  // Starts periodic keep-alive of leaf-set neighbors (requires config.enable_keepalive).
  void StartKeepAlive();

  // Host:
  void HandleMessage(const Message& msg) override;

  // Exposed for tests: the pure next-hop decision. Returns {self host, self id} when the
  // local node is the destination.
  RouteEntry ComputeNextHop(const NodeId& key) const;

  // True when no live leaf-set member is numerically closer to `key` than this node.
  // This is the ownership question ("am I still the rendezvous?"), distinct from the
  // routing question ComputeNextHop answers: mid-repair a leaf set can stop covering
  // the key, which makes routing defer to a longer-prefix node even though self is
  // still the closest id on the ring.
  bool IsClosestKnownToKey(const NodeId& key) const;

 private:
  void HandleEnvelope(const Message& msg);
  void ForwardOrDeliver(std::shared_ptr<const RouteEnvelope> env, int hops);
  void HandleJoinRequestAt(const RouteEnvelope& env, bool is_destination);
  void HandleJoinState(const Message& msg);
  void HandleHeartbeat(const Message& msg);
  void HandleHeartbeatAck(const Message& msg);
  void HandleLeafRepair(const Message& msg);
  // Learn memo capacity (see KeepAlive::memo_count).
  static constexpr uint32_t kMemoSize = 32;
  // Keep-alive and suspect state, allocated on first use; most overlays never need it.
  struct KeepAlive {
    explicit KeepAlive(const RouteEntry& self)
        : self_entry(std::make_shared<const RouteEntry>(self)) {}

    bool running = false;
    uint64_t ticks = 0;
    // Last ack time of each leaf-set member, in leaf_set_.All() order as of the last
    // tick. A host that leaves the set loses its time, so a re-entry starts afresh.
    std::vector<std::pair<HostId, SimTime>> acks;
    // Recently removed nodes still worth probing (ring re-merge after partition heal).
    struct Suspect {
      RouteEntry entry;
      SimTime expires_ms = 0.0;
    };
    std::vector<Suspect> suspects;
    size_t suspect_cursor = 0;
    // The payload of every heartbeat, ack, suspect probe and announce: this node's entry.
    std::shared_ptr<const RouteEntry> self_entry;
    // Learn memo. Learn is a pure function of the three tables and the entry (latency
    // is a pure function of the host pair), so an entry whose offer changed no table
    // changes none again until a table does. The memo holds such entries: the k-th
    // since the last table change sits in slot k % kMemoSize, so a full memo replaces
    // its oldest entry. A table change empties it by zeroing the count.
    uint32_t memo_count = 0;
    std::array<HostId, kMemoSize> memo_hosts{};  // Scanned before the ids.
    std::array<NodeId, kMemoSize> memo_ids{};
  };
  KeepAlive& KeepAliveState();
  // Empties the Learn memo, as every change to the tables must.
  void TablesChanged() {
    if (keepalive_ != nullptr) {
      keepalive_->memo_count = 0;
    }
  }
  void KeepAliveTick();
  // `members` is the tick's leaf-set snapshot, which KeepAlive::acks mirrors.
  void CheckKeepAliveDeadlines(const std::vector<RouteEntry>& members);
  void AddSuspect(const RouteEntry& entry);
  void ProbeOneSuspect();
  // Heartbeats and their acks carry the sender's entry.
  void SendBeat(int type, HostId dst);
  // The leaf set plus this node, as leaf repair replies and gossip carry it.
  Message LeafSetReply(Transport transport) const;
  void ChargeDhtWork(double units);
  AliveFn HostsUp() const;
  RouteEntry SelfEntry() const;
  double ProximityTo(HostId other) const;

  Network* net_;
  const PastryConfig& config_;
  HostId host_;
  RoutingTable routing_table_;  // Holds the node's id.
  LeafSet leaf_set_;
  NeighborhoodSet neighborhood_set_;
  // Handler tables are flat vectors scanned linearly: a node registers a handful of
  // app types at most, and the per-hop lookup in ForwardOrDeliver beats a tree or hash
  // walk at that size.
  std::vector<std::pair<int, DeliverFn>> deliver_handlers_;
  std::vector<std::pair<int, ForwardFn>> forward_handlers_;
  FailureFn failure_fn_;
  EgressFilterFn egress_filter_;
  std::unique_ptr<KeepAlive> keepalive_;
};

}  // namespace totoro

#endif  // SRC_DHT_PASTRY_NODE_H_
