// Road-traffic detection across geographic zones (the paper's §4.2/§4.4 example).
//
// Edge nodes from an EUA-like Australian topology are binned into zones by distributed
// binning. A zone-restricted application (local congestion model for Sydney) must keep
// every packet inside its zone (administrative isolation); a multi-zone application
// (country-wide weather-conditioned traffic model) spans all zones, paying at most
// m * O(log N) hops.
//
//   build/examples/traffic_zones
#include <cstdio>

#include "src/core/eua_topology.h"
#include "src/pubsub/forest.h"
#include "src/rings/multi_ring.h"

int main() {
  using namespace totoro;

  // Build a 600-node EUA-like edge fleet and bin nodes into zones by landmark RTT.
  Rng rng(41);
  const auto eua_nodes = GenerateEuaTopology(600, rng);
  std::vector<GeoPoint> landmarks = {
      {-33.87, 151.21},  // Sydney
      {-37.81, 144.96},  // Melbourne
      {-27.47, 153.03},  // Brisbane
      {-31.95, 115.86},  // Perth
  };
  DistributedBinning binning(landmarks);

  Simulator sim;
  std::vector<GeoPoint> positions;
  positions.reserve(eua_nodes.size());
  for (const auto& node : eua_nodes) {
    positions.push_back(node.location);
  }
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(&sim, std::make_unique<GeoLatency>(positions), net_config);

  MultiRingConfig ring_config;
  ring_config.zone_bits = 2;  // 4 zones = 4 landmarks.
  MultiRing rings(&net, ring_config);
  for (const auto& node : eua_nodes) {
    rings.AddNode(node.location, binning, rng);
  }
  rings.Build(rng);
  Forest forest(&rings.pastry(), ScribeConfig{});

  std::printf("zone populations (distributed binning of %zu EUA nodes):\n",
              eua_nodes.size());
  const char* zone_names[] = {"Sydney", "Melbourne", "Brisbane", "Perth"};
  for (const auto& [zone, count] : rings.ZonePopulation()) {
    std::printf("  zone %u (%s): %zu nodes\n", zone, zone_names[zone % 4], count);
  }

  // --- Zone-restricted app: Sydney congestion model. ---
  // Keys are zone-prefixed, so the tree and all its traffic stay inside zone 0; the
  // administrator's boundary policy would veto anything else.
  const ZoneId sydney = 0;
  const NodeId local_app =
      MakeZonedId(sydney, MakeAppId("sydney-congestion", "road-authority", "v1"), 2);
  const auto sydney_nodes = rings.NodesInZone(sydney);
  std::vector<size_t> members(sydney_nodes.begin(),
                              sydney_nodes.begin() +
                                  static_cast<long>(std::min<size_t>(40, sydney_nodes.size())));
  forest.SubscribeAll(local_app, members);

  const auto isolate = IsolateZoneBoundaryPolicy(2);
  size_t in_zone = 0;
  size_t total = 0;
  for (size_t i = 0; i < forest.size(); ++i) {
    if (forest.scribe(i).InTree(local_app)) {
      ++total;
      if (rings.zone_of_node(i) == sydney) {
        ++in_zone;
      }
    }
  }
  std::printf("\nzone-restricted app 'sydney-congestion': %zu tree members, %zu in-zone\n",
              total, in_zone);
  std::printf("boundary policy allows its key inside zone 0: %s; blocks it at zone 1: %s\n",
              rings.MayForward(members[0], local_app, isolate) ? "yes" : "no",
              isolate(local_app, 1) ? "no(!)" : "yes");

  // --- Multi-zone app: country-wide traffic/weather model. ---
  // The owner opts into all zones; workers come from every zone, and the tree spans the
  // whole fleet under the allow-all policy.
  const NodeId wide_app = MakeAppId("national-traffic-weather", "road-authority", "v1");
  std::vector<size_t> wide_members;
  Rng pick(42);
  for (ZoneId z = 0; z < 4; ++z) {
    const auto zone_nodes = rings.NodesInZone(z);
    for (int i = 0; i < 10 && i < static_cast<int>(zone_nodes.size()); ++i) {
      wide_members.push_back(zone_nodes[pick.NextBelow(zone_nodes.size())]);
    }
  }
  forest.SubscribeAll(wide_app, wide_members);
  const auto stats = forest.ComputeStats(wide_app);
  std::printf("\nmulti-zone app 'national-traffic-weather': %zu subscribers across 4 zones,\n"
              "tree depth %d, all connected: %s\n",
              stats.num_subscribers, stats.depth,
              stats.all_subscribers_connected ? "yes" : "no");

  // Demonstrate a cross-country broadcast through the spanning tree.
  const size_t root = forest.RootOf(wide_app);
  size_t reached = 0;
  forest.SetOnBroadcast([&](HostId, const NodeId&, uint64_t, const ScribeBroadcast&) {
    ++reached;
  });
  forest.scribe(root).Broadcast(wide_app, 1, std::make_shared<int>(0), 50000);
  sim.Run();
  std::printf("model broadcast from master (node %zu) reached %zu/%zu subscribers\n", root,
              reached, stats.num_subscribers);
  return 0;
}
