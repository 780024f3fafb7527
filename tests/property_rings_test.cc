// Property-style tests of the locality layer: zoned-id algebra fuzzing, two-level
// routing sweeps over (zone_bits, suffix_bits, population), and binning invariants.
#include <gtest/gtest.h>

#include "src/rings/binning.h"
#include "src/rings/two_level_table.h"

namespace totoro {
namespace {

// ---------- Zoned-id algebra ----------

class ZonedIdFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZonedIdFuzzTest, ZoneRoundTripsForAllWidths) {
  Rng rng(GetParam());
  for (int zone_bits = 1; zone_bits <= 24; ++zone_bits) {
    for (int i = 0; i < 40; ++i) {
      const ZoneId zone = static_cast<ZoneId>(rng.NextBelow(1ull << zone_bits));
      const U128 suffix(rng.Next(), rng.Next());
      const NodeId id = MakeZonedId(zone, suffix, zone_bits);
      EXPECT_EQ(ZoneOf(id, zone_bits), zone) << "zone_bits=" << zone_bits;
    }
  }
}

TEST_P(ZonedIdFuzzTest, ZonePrefixOrdersIds) {
  // All ids of zone z are numerically below all ids of zone z+1 — the property that
  // makes prefix routing converge inside zones.
  Rng rng(GetParam() ^ 0x7);
  const int zone_bits = 4;
  for (int i = 0; i < 200; ++i) {
    const ZoneId z = static_cast<ZoneId>(rng.NextBelow(15));
    const NodeId low = RandomZonedId(z, zone_bits, rng);
    const NodeId high = RandomZonedId(z + 1, zone_bits, rng);
    EXPECT_LT(low, high);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZonedIdFuzzTest, ::testing::Range<uint64_t>(600, 605));

// ---------- Two-level table sweeps ----------

struct TwoLevelParams {
  int zone_bits;
  int suffix_bits;
  size_t nodes_per_zone;
  uint64_t seed;
};

void PrintTo(const TwoLevelParams& p, std::ostream* os) {
  *os << "m=" << p.zone_bits << " n=" << p.suffix_bits << " pop=" << p.nodes_per_zone
      << " seed=" << p.seed;
}

class TwoLevelSweepTest : public ::testing::TestWithParam<TwoLevelParams> {
 protected:
  void SetUp() override {
    const auto p = GetParam();
    Rng rng(p.seed);
    const uint32_t zones = 1u << p.zone_bits;
    for (ZoneId z = 0; z < zones; ++z) {
      for (size_t i = 0; i < p.nodes_per_zone; ++i) {
        const uint64_t suffix = rng.NextBelow(1ull << p.suffix_bits);
        const U128 suffix_bits = U128(0, suffix)
                                 << (128 - p.zone_bits - p.suffix_bits);
        const NodeId id = MakeZonedId(z, suffix_bits, p.zone_bits);
        // Skip duplicate suffixes within a zone.
        bool dup = false;
        for (const NodeId& existing : ids_) {
          if (existing == id) {
            dup = true;
          }
        }
        if (!dup) {
          ids_.push_back(id);
        }
      }
    }
    for (const NodeId& id : ids_) {
      tables_.emplace_back(id, p.zone_bits, p.suffix_bits);
    }
    for (auto& table : tables_) {
      for (size_t i = 0; i < ids_.size(); ++i) {
        table.Consider(RouteEntry{ids_[i], static_cast<HostId>(i)});
      }
    }
  }

  size_t IndexOf(const NodeId& id) const {
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == id) {
        return i;
      }
    }
    return SIZE_MAX;
  }

  std::vector<NodeId> ids_;
  std::vector<TwoLevelTable> tables_;
};

TEST_P(TwoLevelSweepTest, IntraZoneRoutesNeverLeaveTheZone) {
  const auto p = GetParam();
  Rng rng(p.seed + 1);
  for (int t = 0; t < 30; ++t) {
    const size_t start = rng.NextBelow(ids_.size());
    const ZoneId zone = ZoneOf(ids_[start], p.zone_bits);
    const NodeId key = MakeZonedId(
        zone, U128(0, rng.NextBelow(1ull << p.suffix_bits))
                  << (128 - p.zone_bits - p.suffix_bits),
        p.zone_bits);
    size_t current = start;
    int hops = 0;
    while (hops < 2 * p.suffix_bits + 4) {
      EXPECT_EQ(ZoneOf(ids_[current], p.zone_bits), zone)
          << "route left the zone at hop " << hops;
      const auto next = tables_[current].NextHop(key);
      if (!next.has_value()) {
        break;
      }
      current = IndexOf(next->id);
      ASSERT_NE(current, SIZE_MAX);
      ++hops;
    }
    EXPECT_LT(hops, 2 * p.suffix_bits + 4) << "route did not terminate";
  }
}

TEST_P(TwoLevelSweepTest, Level1EntriesMatchTheFormula) {
  const auto p = GetParam();
  for (const auto& table : tables_) {
    ASSERT_EQ(table.level1().size(), static_cast<size_t>(p.zone_bits));
    for (int i = 1; i <= p.zone_bits; ++i) {
      const ZoneId expected = static_cast<ZoneId>(
          (table.zone() + (1ull << (i - 1))) & ((1ull << p.zone_bits) - 1));
      EXPECT_EQ(ZoneOf(table.level1()[static_cast<size_t>(i - 1)].target, p.zone_bits),
                expected);
    }
  }
}

TEST_P(TwoLevelSweepTest, ResolvedEntriesPointToRealNodes) {
  for (const auto& table : tables_) {
    for (const auto& level : {table.level1(), table.level2()}) {
      for (const auto& slot : level) {
        if (slot.node.has_value()) {
          EXPECT_NE(IndexOf(slot.node->id), SIZE_MAX);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, TwoLevelSweepTest,
                         ::testing::Values(TwoLevelParams{2, 6, 10, 1},
                                           TwoLevelParams{3, 8, 20, 2},
                                           TwoLevelParams{4, 8, 12, 3},
                                           TwoLevelParams{2, 10, 40, 4},
                                           TwoLevelParams{1, 6, 15, 5}));

// ---------- Binning invariants ----------

class BinningSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinningSweepTest, BinningIsDeterministicAndTotal) {
  Rng rng(GetParam());
  std::vector<GeoPoint> landmarks;
  const size_t k = 2 + rng.NextBelow(6);
  for (size_t i = 0; i < k; ++i) {
    landmarks.push_back({rng.Uniform(-60, 60), rng.Uniform(-180, 180)});
  }
  DistributedBinning binning(landmarks);
  for (int i = 0; i < 200; ++i) {
    const GeoPoint p{rng.Uniform(-60, 60), rng.Uniform(-180, 180)};
    const uint32_t bin = binning.BinOf(p);
    EXPECT_EQ(binning.BinOf(p), bin);  // Deterministic.
    EXPECT_LT(binning.NearestLandmark(p), k);
    // With nearest-landmark signatures, at most k bins exist.
    EXPECT_LE(binning.num_bins(), k * 4);  // k landmarks x <=4 RTT levels.
  }
}

TEST_P(BinningSweepTest, NodesBinToTheirNearestLandmarkVoronoi) {
  Rng rng(GetParam() ^ 0x88);
  std::vector<GeoPoint> landmarks = {{0, 0}, {0, 90}, {45, -90}};
  DistributedBinning binning(landmarks);
  for (int i = 0; i < 100; ++i) {
    const GeoPoint p{rng.Uniform(-60, 60), rng.Uniform(-180, 180)};
    const uint32_t nearest = binning.NearestLandmark(p);
    double best = 1e18;
    uint32_t expected = 0;
    for (uint32_t l = 0; l < landmarks.size(); ++l) {
      const double d = HaversineKm(p, landmarks[l]);
      if (d < best) {
        best = d;
        expected = l;
      }
    }
    EXPECT_EQ(nearest, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinningSweepTest, ::testing::Range<uint64_t>(700, 706));

}  // namespace
}  // namespace totoro
