// The "forest" abstraction: one ScribeNode per overlay node, many application trees.
//
// Forest owns the Scribe layer for a whole PastryNetwork. It holds what every one of its
// ScribeNodes shares, once: the ScribeConfig (nodes refer to it, as a PastryNode refers
// to its PastryNetwork's PastryConfig), the application upcalls (Table 2's onBroadcast,
// onAggregate and onTimer straggler report, plus the faultsim aggregate audit), and the
// per-topic combiners (§4.3: "owners can specify different aggregation functions in
// their trees"). Nodes refer to the forest, so it is neither copied nor moved.
//
// A node is named by its HostId: the PastryNetwork's node index is its HostId, so
// scribe(host) is the one host -> node lookup.
//
// Forest also provides the global views the evaluation needs: which host roots which
// trees (Fig. 5b), per-level branch distribution (Fig. 5d), tree depth/connectivity
// (Fig. 6, Fig. 12). These global scans exist only in the harness — protocol nodes
// never use them.
#ifndef SRC_PUBSUB_FOREST_H_
#define SRC_PUBSUB_FOREST_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dht/pastry_network.h"
#include "src/pubsub/scribe_node.h"

namespace totoro {

class Forest {
 public:
  // Runs on a subscriber of `topic` (host `host`) when a broadcast reaches it.
  using BroadcastFn = std::function<void(HostId host, const NodeId& topic, uint64_t round,
                                         const ScribeBroadcast& msg)>;
  // Runs on a topic's root when a round's total is finalized.
  using RootAggregateFn =
      std::function<void(const NodeId& topic, uint64_t round, const AggregationPiece& total)>;
  // Runs when a round's straggler cut-off fires, with the children that had not
  // reported (Table 2's onTimer exposes straggler ids to the application owner).
  using StragglerFn = std::function<void(const NodeId& topic, uint64_t round,
                                         const std::vector<HostId>& missing_children)>;
  // Runs at the root whenever a round's total is finalized, before the application
  // callback — the faultsim InvariantChecker audits contribution counts here.
  using AggregateAuditFn = RootAggregateFn;

  Forest(PastryNetwork* pastry, ScribeConfig config);
  Forest(const Forest&) = delete;
  Forest& operator=(const Forest&) = delete;

  // The ScribeNode of overlay host `host`; hosts [0, size()) each have one.
  ScribeNode& scribe(HostId host) { return *scribes_[host]; }
  const ScribeNode& scribe(HostId host) const { return *scribes_[host]; }
  size_t size() const { return scribes_.size(); }
  PastryNetwork& pastry() { return *pastry_; }
  const ScribeConfig& config() const { return config_; }

  // Application upcalls, one set per forest; each replaces the previous one. Under the
  // sharded engine they run on the worker of the host they concern, so a hook given to
  // a K>1 run must be safe to call concurrently for different hosts.
  void SetOnBroadcast(BroadcastFn fn) { on_broadcast_ = std::move(fn); }
  void SetOnRootAggregate(RootAggregateFn fn) { on_root_aggregate_ = std::move(fn); }
  void SetOnStragglers(StragglerFn fn) { on_stragglers_ = std::move(fn); }
  void SetAggregateAudit(AggregateAuditFn fn) { aggregate_audit_ = std::move(fn); }
  // Per-topic combiner (§4.3) for every hop of `topic`'s tree, e.g. a secure-sum
  // combiner for one application while each node's default (ScribeNode::SetCombineFn)
  // serves every other topic.
  void SetCombineFnForTopic(const NodeId& topic, CombineFn fn) {
    topic_combine_[topic] = std::move(fn);
  }

  // Derives the AppId topic for an application name (uniform via SHA-1).
  NodeId CreateTopic(const std::string& app_name,
                     const std::string& creator_key = "creator-pk",
                     const std::string& salt = "salt-0") const;

  // Subscribes the given hosts to `topic` and runs the simulator until the JOIN
  // traffic quiesces. When periodic timers (keep-alives, maintenance) are active the
  // event queue never drains, so pass `settle_ms` > 0 to bound the settling run instead.
  void SubscribeAll(const NodeId& topic, const std::vector<size_t>& members,
                    double settle_ms = 0.0);

  // Starts periodic tree maintenance (parent heartbeats + rejoin) on every node.
  void StartMaintenance();

  // ----- Global inspection (harness-only) -----

  // Host of the root node of `topic`, or SIZE_MAX when no live root exists.
  size_t RootOf(const NodeId& topic) const;

  struct TreeStats {
    size_t num_members = 0;      // Nodes with tree state (root + forwarders + leaves).
    size_t num_subscribers = 0;  // Worker nodes.
    int depth = 0;               // Levels below the root reached by BFS.
    std::map<int, size_t> nodes_per_level;
    double mean_fanout = 0.0;    // Mean children count over internal nodes.
    size_t reachable_from_root = 0;
    bool all_subscribers_connected = false;
  };
  TreeStats ComputeStats(const NodeId& topic) const;

  // How many tree roots each host carries (Fig. 5b's masters-per-node distribution).
  std::map<HostId, size_t> RootsPerHost(const std::vector<NodeId>& topics) const;

  // True if every live subscriber of `topic` reaches a live root by parent pointers.
  bool IsFullyConnected(const NodeId& topic) const;

 private:
  friend class ScribeNode;

  // The topic's own combiner, or null when the node default applies.
  const CombineFn* TopicCombineFn(const NodeId& topic) const {
    const auto it = topic_combine_.find(topic);
    return it == topic_combine_.end() ? nullptr : &it->second;
  }

  PastryNetwork* pastry_;
  const ScribeConfig config_;
  BroadcastFn on_broadcast_;
  RootAggregateFn on_root_aggregate_;
  StragglerFn on_stragglers_;
  AggregateAuditFn aggregate_audit_;
  std::map<U128, CombineFn> topic_combine_;
  std::vector<std::unique_ptr<ScribeNode>> scribes_;
};

}  // namespace totoro

#endif  // SRC_PUBSUB_FOREST_H_
