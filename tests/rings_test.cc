#include <gtest/gtest.h>

#include "src/core/eua_topology.h"
#include "src/rings/multi_ring.h"

namespace totoro {
namespace {

TEST(ZonesTest, MakeAndExtractZone) {
  Rng rng(1);
  for (ZoneId zone = 0; zone < 16; ++zone) {
    for (int i = 0; i < 10; ++i) {
      const NodeId id = RandomZonedId(zone, 4, rng);
      EXPECT_EQ(ZoneOf(id, 4), zone);
      EXPECT_TRUE(InZone(id, zone, 4));
      EXPECT_FALSE(InZone(id, (zone + 1) % 16, 4));
    }
  }
}

TEST(ZonesTest, ZonePrefixOccupiesTopBits) {
  const NodeId id = MakeZonedId(0xF, U128(0, 0), 4);
  EXPECT_EQ(id, U128(0xF000000000000000ull, 0));
}

TEST(ZonesTest, SuffixMaskDiscardsHighBits) {
  // A suffix with bits above 128-zone_bits must not corrupt the zone prefix.
  const NodeId id = MakeZonedId(0x3, U128::Max(), 4);
  EXPECT_EQ(ZoneOf(id, 4), 0x3u);
}

TEST(BinningTest, NearestLandmarkVoronoi) {
  std::vector<GeoPoint> landmarks = {{-33.87, 151.21}, {-37.81, 144.96}, {-31.95, 115.86}};
  DistributedBinning binning(landmarks);
  // A point near Sydney bins to landmark 0; near Perth to landmark 2.
  EXPECT_EQ(binning.NearestLandmark({-33.5, 151.0}), 0u);
  EXPECT_EQ(binning.NearestLandmark({-32.0, 116.0}), 2u);
}

TEST(BinningTest, SameAreaSameBin) {
  std::vector<GeoPoint> landmarks = {{-33.87, 151.21}, {-37.81, 144.96}};
  DistributedBinning binning(landmarks);
  const uint32_t b1 = binning.BinOf({-33.8, 151.2});
  const uint32_t b2 = binning.BinOf({-33.9, 151.3});
  EXPECT_EQ(b1, b2);
  const uint32_t b3 = binning.BinOf({-37.8, 145.0});
  EXPECT_NE(b1, b3);
}

TEST(BinningTest, DiameterGrowsWithSpread) {
  std::vector<GeoPoint> landmarks = {{0.0, 0.0}};
  DistributedBinning binning(landmarks);
  binning.RecordMember(0, {0.0, 0.0});
  binning.RecordMember(0, {0.1, 0.1});
  const double small = binning.DiameterOf(0);
  binning.RecordMember(0, {3.0, 3.0});
  const double large = binning.DiameterOf(0);
  EXPECT_LT(small, large);
  EXPECT_GT(large, 0.0);
}

TEST(BinningTest, FullOrderingSignaturesAreFiner) {
  std::vector<GeoPoint> landmarks = {{0.0, 0.0}, {0.0, 10.0}, {10.0, 0.0}};
  BinningConfig coarse;
  coarse.use_full_ordering = false;
  BinningConfig fine;
  fine.use_full_ordering = true;
  DistributedBinning coarse_binning(landmarks, coarse);
  DistributedBinning fine_binning(landmarks, fine);
  const GeoPoint p{1.0, 1.0};
  EXPECT_LE(coarse_binning.SignatureOf(p).size(), fine_binning.SignatureOf(p).size());
}

// ---------- Two-level table ----------

struct TwoLevelWorld {
  // A small synthetic world: zone_bits=3 (8 zones), suffix_bits=8.
  static constexpr int kZoneBits = 3;
  static constexpr int kSuffixBits = 8;
  std::vector<NodeId> ids;
  std::vector<TwoLevelTable> tables;

  explicit TwoLevelWorld(size_t nodes_per_zone, uint64_t seed = 42) {
    Rng rng(seed);
    for (ZoneId z = 0; z < (1u << kZoneBits); ++z) {
      for (size_t i = 0; i < nodes_per_zone; ++i) {
        // Place suffix bits directly below the zone prefix.
        const uint64_t suffix = rng.NextBelow(1ull << kSuffixBits);
        const U128 suffix_bits = U128(0, suffix) << (128 - kZoneBits - kSuffixBits);
        ids.push_back(MakeZonedId(z, suffix_bits, kZoneBits));
      }
    }
    for (const NodeId& id : ids) {
      tables.emplace_back(id, kZoneBits, kSuffixBits);
    }
    // Full knowledge: every table sees every node.
    for (auto& table : tables) {
      for (size_t i = 0; i < ids.size(); ++i) {
        table.Consider(RouteEntry{ids[i], static_cast<HostId>(i)});
      }
    }
  }

  size_t IndexOf(const NodeId& id) const {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id) {
        return i;
      }
    }
    return SIZE_MAX;
  }

  // Iteratively routes toward key; returns (final node index, hops).
  std::pair<size_t, int> RouteFrom(size_t start, const NodeId& key) const {
    size_t current = start;
    int hops = 0;
    while (hops < 200) {
      const auto next = tables[current].NextHop(key);
      if (!next.has_value()) {
        return {current, hops};
      }
      current = IndexOf(next->id);
      EXPECT_NE(current, SIZE_MAX);
      ++hops;
    }
    return {current, hops};
  }
};

TEST(TwoLevelTableTest, Level1TargetsFollowFormula) {
  // Node in zone 2: entries target zones (2+1), (2+2), (2+4) mod 8.
  TwoLevelTable table(MakeZonedId(2, U128(0, 0), 3), 3, 8);
  ASSERT_EQ(table.level1().size(), 3u);
  EXPECT_EQ(ZoneOf(table.level1()[0].target, 3), 3u);
  EXPECT_EQ(ZoneOf(table.level1()[1].target, 3), 4u);
  EXPECT_EQ(ZoneOf(table.level1()[2].target, 3), 6u);
}

TEST(TwoLevelTableTest, Level2StaysInZone) {
  TwoLevelWorld world(20);
  for (const auto& table : world.tables) {
    for (const auto& slot : table.level2()) {
      EXPECT_EQ(ZoneOf(slot.target, TwoLevelWorld::kZoneBits), table.zone());
      if (slot.node.has_value()) {
        EXPECT_EQ(ZoneOf(slot.node->id, TwoLevelWorld::kZoneBits), table.zone());
      }
    }
  }
}

TEST(TwoLevelTableTest, IntraZoneRoutingConvergesInZone) {
  TwoLevelWorld world(20);
  Rng rng(7);
  for (int t = 0; t < 40; ++t) {
    const size_t start = rng.NextBelow(world.ids.size());
    const ZoneId zone = ZoneOf(world.ids[start], TwoLevelWorld::kZoneBits);
    // Pick a key in the same zone.
    const NodeId key = MakeZonedId(
        zone, U128(0, rng.NextBelow(1ull << TwoLevelWorld::kSuffixBits))
                  << (128 - TwoLevelWorld::kZoneBits - TwoLevelWorld::kSuffixBits),
        TwoLevelWorld::kZoneBits);
    auto [final_node, hops] = world.RouteFrom(start, key);
    // Path convergence / administrative isolation: the whole route stays in zone.
    EXPECT_EQ(ZoneOf(world.ids[final_node], TwoLevelWorld::kZoneBits), zone);
    EXPECT_LE(hops, TwoLevelWorld::kSuffixBits + 1);
  }
}

TEST(TwoLevelTableTest, CrossZoneRoutingReachesTargetZone) {
  TwoLevelWorld world(20);
  Rng rng(11);
  for (int t = 0; t < 40; ++t) {
    const size_t start = rng.NextBelow(world.ids.size());
    const ZoneId target_zone = static_cast<ZoneId>(rng.NextBelow(8));
    const NodeId key = MakeZonedId(target_zone, U128(0, 0), TwoLevelWorld::kZoneBits);
    auto [final_node, hops] = world.RouteFrom(start, key);
    (void)hops;
    // Greedy clockwise progress must land in (or adjacent to) the target zone; with
    // populated zones the terminal node's table has no closer entry, meaning it is the
    // best-known owner of the key.
    const auto next = world.tables[final_node].NextHop(key);
    EXPECT_FALSE(next.has_value());
  }
}

TEST(TwoLevelTableTest, HopCountLogarithmicInZoneSize) {
  TwoLevelWorld world(30);
  Rng rng(13);
  double total_hops = 0;
  int trials = 0;
  for (int t = 0; t < 50; ++t) {
    const size_t start = rng.NextBelow(world.ids.size());
    const ZoneId zone = ZoneOf(world.ids[start], TwoLevelWorld::kZoneBits);
    const NodeId key = MakeZonedId(
        zone, U128(0, rng.NextBelow(1ull << TwoLevelWorld::kSuffixBits))
                  << (128 - TwoLevelWorld::kZoneBits - TwoLevelWorld::kSuffixBits),
        TwoLevelWorld::kZoneBits);
    auto [final_node, hops] = world.RouteFrom(start, key);
    (void)final_node;
    total_hops += hops;
    ++trials;
  }
  // Chord-style fingers: expected ~log2(zone population) = ~5 hops; forbid linear.
  EXPECT_LE(total_hops / trials, 8.0);
}

TEST(TwoLevelTableTest, RemoveEvictsNode) {
  TwoLevelWorld world(5);
  auto& table = world.tables[0];
  size_t resolved_before = table.NumResolvedEntries();
  ASSERT_GT(resolved_before, 0u);
  // Remove every other node; eventually slots empty out.
  for (size_t i = 1; i < world.ids.size(); ++i) {
    table.Remove(world.ids[i]);
  }
  EXPECT_EQ(table.NumResolvedEntries(), 0u);
}

TEST(BoundaryPolicyTest, IsolationBlocksCrossZoneKeys) {
  const auto policy = IsolateZoneBoundaryPolicy(4);
  Rng rng(3);
  const NodeId in_zone = RandomZonedId(5, 4, rng);
  const NodeId out_zone = RandomZonedId(6, 4, rng);
  EXPECT_TRUE(policy(in_zone, 5));
  EXPECT_FALSE(policy(out_zone, 5));
  EXPECT_TRUE(AllowAllBoundaryPolicy()(out_zone, 5));
}

// ---------- MultiRing ----------

TEST(MultiRingTest, NodesLandInRequestedZones) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(1.0));
  MultiRingConfig config;
  config.zone_bits = 4;
  MultiRing rings(&net, config);
  Rng rng(21);
  for (ZoneId z = 0; z < 4; ++z) {
    for (int i = 0; i < 5; ++i) {
      const size_t index = rings.AddNodeInZone(z, rng);
      EXPECT_EQ(rings.zone_of_node(index), z);
      EXPECT_EQ(ZoneOf(rings.pastry().node(index).id(), 4), z);
    }
  }
  const auto pop = rings.ZonePopulation();
  EXPECT_EQ(pop.size(), 4u);
  for (const auto& [zone, count] : pop) {
    (void)zone;
    EXPECT_EQ(count, 5u);
  }
  EXPECT_EQ(rings.NodesInZone(2).size(), 5u);
}

TEST(MultiRingTest, GeographicNodesBinnedByLandmark) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(1.0));
  MultiRingConfig config;
  config.zone_bits = 4;
  MultiRing rings(&net, config);
  std::vector<GeoPoint> landmarks = {{-33.87, 151.21}, {-37.81, 144.96}};
  DistributedBinning binning(landmarks);
  Rng rng(23);
  const size_t sydney = rings.AddNode({-33.8, 151.3}, binning, rng);
  const size_t sydney2 = rings.AddNode({-33.9, 151.1}, binning, rng);
  const size_t melbourne = rings.AddNode({-37.8, 145.0}, binning, rng);
  EXPECT_EQ(rings.zone_of_node(sydney), rings.zone_of_node(sydney2));
  EXPECT_NE(rings.zone_of_node(sydney), rings.zone_of_node(melbourne));
}

TEST(MultiRingTest, MayForwardHonorsPolicy) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(1.0));
  MultiRingConfig config;
  config.zone_bits = 4;
  MultiRing rings(&net, config);
  Rng rng(25);
  const size_t node = rings.AddNodeInZone(3, rng);
  const NodeId local_key = RandomZonedId(3, 4, rng);
  const NodeId remote_key = RandomZonedId(9, 4, rng);
  const auto isolate = IsolateZoneBoundaryPolicy(4);
  EXPECT_TRUE(rings.MayForward(node, local_key, isolate));
  EXPECT_FALSE(rings.MayForward(node, remote_key, isolate));
}

TEST(MultiRingTest, ZonePrefixedOverlayRoutesIntraZoneViaZoneMembers) {
  // The multi-ring property: a key in zone z is owned by a node of zone z (when the
  // zone is populated), so intra-zone traffic never leaves the zone.
  Simulator sim;
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 5.0, 1), net_config);
  MultiRingConfig config;
  config.zone_bits = 2;  // 4 zones.
  MultiRing rings(&net, config);
  Rng rng(27);
  for (ZoneId z = 0; z < 4; ++z) {
    for (int i = 0; i < 25; ++i) {
      rings.AddNodeInZone(z, rng);
    }
  }
  rings.Build(rng);
  for (int t = 0; t < 40; ++t) {
    const ZoneId zone = static_cast<ZoneId>(rng.NextBelow(4));
    const NodeId key = RandomZonedId(zone, 2, rng);
    PastryNode* owner = rings.pastry().ClosestLiveNode(key);
    EXPECT_EQ(ZoneOf(owner->id(), 2), zone);
  }
}

// ---------- EUA topology ----------

TEST(EuaTopologyTest, RegionCountsMatchPublishedProportions) {
  Rng rng(31);
  const auto nodes = GenerateEuaTopology(95271, rng);
  const auto counts = RegionCounts(nodes);
  const auto& regions = EuaRegions();
  ASSERT_EQ(counts.size(), regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]), static_cast<double>(regions[i].full_count),
                static_cast<double>(regions[i].full_count) * 0.02 + 2.0)
        << regions[i].name;
  }
}

TEST(EuaTopologyTest, ScaledTopologyKeepsEveryRegion) {
  Rng rng(33);
  const auto nodes = GenerateEuaTopology(1000, rng);
  const auto counts = RegionCounts(nodes);
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], 1u) << EuaRegions()[i].name;
  }
  // NSW dominates at every scale.
  size_t nsw_index = 4;
  EXPECT_EQ(EuaRegions()[nsw_index].name, "NSW");
  EXPECT_EQ(*std::max_element(counts.begin(), counts.end()), counts[nsw_index]);
}

TEST(EuaTopologyTest, NodesNearRegionAnchor) {
  Rng rng(35);
  const auto nodes = GenerateEuaTopology(500, rng);
  const auto& regions = EuaRegions();
  for (const auto& n : nodes) {
    const auto& r = regions[static_cast<size_t>(n.region)];
    EXPECT_LT(std::abs(n.location.lat_deg - r.anchor.lat_deg), r.spread_deg * 6);
  }
}

}  // namespace
}  // namespace totoro
