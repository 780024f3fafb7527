#include "src/pubsub/forest.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/common/check.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace totoro {

Forest::Forest(PastryNetwork* pastry, ScribeConfig config) : pastry_(pastry) {
  ProfileScope profile_scope("forest_build");
  scribes_.reserve(pastry_->size());
  for (size_t i = 0; i < pastry_->size(); ++i) {
    scribes_.push_back(std::make_unique<ScribeNode>(&pastry_->node(i), config));
  }
}

NodeId Forest::CreateTopic(const std::string& app_name, const std::string& creator_key,
                           const std::string& salt) const {
  return MakeAppId(app_name, creator_key, salt);
}

void Forest::SubscribeAll(const NodeId& topic, const std::vector<size_t>& members,
                          double settle_ms) {
  ProfileScope profile_scope("subscribe_all");
  // Harness-level span (no single host): covers JOIN fan-out plus the settle window.
  TraceSpan span = GlobalTracer().Begin("pubsub.subscribe_all", "pubsub", UINT32_MAX);
  if (span.active()) {
    span.AddArg("members", std::to_string(members.size()));
  }
  Simulator* sim = pastry_->network()->sim();
  for (size_t i : members) {
    CHECK_LT(i, scribes_.size());
    // Establish the member as the scheduling identity so its JOIN (and any timers the
    // join path arms) lands on its own shard under the sharded engine.
    sim->RunAsHost(scribes_[i]->host(), [this, i, &topic] { scribes_[i]->Subscribe(topic); });
  }
  if (settle_ms > 0.0) {
    pastry_->network()->sim()->RunFor(settle_ms);
  } else {
    pastry_->network()->sim()->Run();
  }
}

void Forest::StartMaintenance() {
  for (auto& scribe : scribes_) {
    scribe->StartMaintenance();
  }
}

size_t Forest::RootOf(const NodeId& topic) const {
  for (size_t i = 0; i < scribes_.size(); ++i) {
    if (scribes_[i]->IsRoot(topic) && scribes_[i]->pastry().alive()) {
      return i;
    }
  }
  return SIZE_MAX;
}

Forest::TreeStats Forest::ComputeStats(const NodeId& topic) const {
  TreeStats stats;
  std::unordered_map<HostId, size_t> host_to_index;
  for (size_t i = 0; i < scribes_.size(); ++i) {
    host_to_index[scribes_[i]->host()] = i;
    if (scribes_[i]->InTree(topic)) {
      ++stats.num_members;
    }
    if (scribes_[i]->IsSubscriber(topic)) {
      ++stats.num_subscribers;
    }
  }
  const size_t root = RootOf(topic);
  if (root == SIZE_MAX) {
    return stats;
  }
  // BFS down children tables.
  std::deque<std::pair<size_t, int>> frontier;
  std::unordered_set<size_t> visited;
  frontier.emplace_back(root, 0);
  visited.insert(root);
  size_t internal_nodes = 0;
  size_t total_children = 0;
  while (!frontier.empty()) {
    auto [index, level] = frontier.front();
    frontier.pop_front();
    ++stats.nodes_per_level[level];
    ++stats.reachable_from_root;
    stats.depth = std::max(stats.depth, level);
    const auto children = scribes_[index]->ChildrenOf(topic);
    if (!children.empty()) {
      ++internal_nodes;
      total_children += children.size();
    }
    for (HostId child : children) {
      auto it = host_to_index.find(child);
      if (it == host_to_index.end()) {
        continue;
      }
      if (visited.insert(it->second).second) {
        frontier.emplace_back(it->second, level + 1);
      }
    }
  }
  stats.mean_fanout =
      internal_nodes == 0 ? 0.0 : static_cast<double>(total_children) / internal_nodes;
  stats.all_subscribers_connected = IsFullyConnected(topic);
  return stats;
}

std::map<HostId, size_t> Forest::RootsPerHost(const std::vector<NodeId>& topics) const {
  std::map<HostId, size_t> roots;
  // Every host appears in the map (zero-rooted hosts matter for the distribution).
  for (const auto& scribe : scribes_) {
    roots[scribe->host()] = 0;
  }
  for (const auto& topic : topics) {
    const size_t root = RootOf(topic);
    if (root != SIZE_MAX) {
      ++roots[scribes_[root]->host()];
    }
  }
  return roots;
}

bool Forest::IsFullyConnected(const NodeId& topic) const {
  std::unordered_map<HostId, size_t> host_to_index;
  for (size_t i = 0; i < scribes_.size(); ++i) {
    host_to_index[scribes_[i]->host()] = i;
  }
  for (size_t i = 0; i < scribes_.size(); ++i) {
    const ScribeNode& scribe = *scribes_[i];
    if (!scribe.IsSubscriber(topic) || !scribe.pastry().alive()) {
      continue;
    }
    // Walk parent pointers to a live root, bounded to forest size to stop cycles.
    size_t current = i;
    bool reached_root = false;
    for (size_t steps = 0; steps <= scribes_.size(); ++steps) {
      const ScribeNode& node = *scribes_[current];
      if (!node.pastry().alive()) {
        break;
      }
      if (node.IsRoot(topic)) {
        reached_root = true;
        break;
      }
      const HostId parent = node.ParentOf(topic);
      if (parent == kInvalidHost) {
        break;
      }
      auto it = host_to_index.find(parent);
      if (it == host_to_index.end()) {
        break;
      }
      current = it->second;
    }
    if (!reached_root) {
      return false;
    }
  }
  return true;
}

}  // namespace totoro
