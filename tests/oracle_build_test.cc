// Golden test for PastryNetwork::BuildOracle: a hash of the full post-build state —
// every node's routing-table, leaf-set and neighborhood entries, the per-host work and
// state-byte accounting, and the caller's next draw — must match the values recorded
// from the original single-threaded build loop, at every worker count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "src/dht/pastry_network.h"
#include "src/sim/latency_model.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace totoro {
namespace {

// Streaming 64-bit FNV-1a.
class StateHash {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(const U128& id) {
    Add(id.hi());
    Add(id.lo());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

struct Golden {
  size_t nodes;
  uint64_t seed;
  int bits_per_digit;
  uint64_t hash;
};

// With the default b = 4, n spans below, at and above the leaf-set size L = 24, the two
// FL benchmark overlays (400 and 1,200 nodes), and a size the default build splits
// across workers. b = 5 (fanout 32, the TTA benches' overlay) leaves 128 % b bits below
// the last digit.
constexpr Golden kGolden[] = {
    {5, 7, 4, 0x8e123e855320ffc0ull},
    {5, 20240807, 4, 0x9d9c347f99d8a514ull},
    {24, 7, 4, 0xce081f096e6f55b9ull},
    {24, 20240807, 4, 0x4bf4ba87d6a52f9dull},
    {25, 7, 4, 0x1850cecf356baa50ull},
    {25, 20240807, 4, 0x05ff416a242117efull},
    {400, 7, 4, 0x1054712003787d87ull},
    {400, 20240807, 4, 0x2e192af78d5bf7dcull},
    {1200, 7, 4, 0x6f09347ef0a103d2ull},
    {1200, 20240807, 4, 0xe7f43c123c46628dull},
    {20000, 7, 4, 0x6afaeff002129239ull},
    {20000, 20240807, 4, 0x619e6ab1db56b974ull},
    {400, 7, 5, 0x641da75cb4c0bfedull},
    {20000, 20240807, 5, 0xc25f5ca7b52c91d4ull},
};

// Builds an overlay of `nodes` random ids drawn from `seed` on `workers` threads (0:
// BuildOracle's own choice) and returns the state hash.
uint64_t BuildAndHash(size_t nodes, uint64_t seed, int bits_per_digit, size_t workers) {
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(2.0, 40.0, seed ^ 0xFEED));
  PastryConfig config;
  config.bits_per_digit = bits_per_digit;
  PastryNetwork pastry(&net, config);
  Rng rng(seed);
  pastry.Reserve(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    pastry.AddRandomNode(rng);
  }
  if (workers == 0) {
    pastry.BuildOracle(rng);
  } else {
    pastry.BuildOracleForTest(rng, workers);
  }

  StateHash h;
  const NetworkMetrics& metrics = net.metrics();
  for (size_t i = 0; i < pastry.size(); ++i) {
    PastryNode& node = pastry.node(i);
    // An entry hashes with its proximity to the node, which the tables used to store;
    // the goldens predate that and still hold.
    const auto add_entry = [&](const RouteEntry& e) {
      h.Add(e.id);
      h.Add(uint64_t{e.host});
      h.Add(net.LatencyMs(node.host(), e.host));
    };
    h.Add(node.id());
    h.Add(uint64_t{node.host()});
    h.Add(uint64_t{node.routing_table().NumRows()});
    h.Add(uint64_t{node.routing_table().NumEntries()});
    node.routing_table().ForEach(add_entry);
    for (const RouteEntry& e : node.leaf_set().clockwise()) {
      add_entry(e);
    }
    for (const RouteEntry& e : node.leaf_set().counter_clockwise()) {
      add_entry(e);
    }
    h.Add(uint64_t{node.leaf_set().NumEntries()});
    for (const NeighborhoodSet::Member& m : node.neighborhood_set().members()) {
      add_entry(m.entry);
    }
    h.Add(uint64_t{node.neighborhood_set().NumEntries()});
    for (const double units : metrics.work(node.host()).work_units) {
      h.Add(units);
    }
    h.Add(static_cast<uint64_t>(metrics.work(node.host()).state_bytes));
  }
  h.Add(rng.Next());
  return h.value();
}

void ExpectGoldenAt(size_t workers) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(testing::Message() << "n=" << g.nodes << " seed=" << g.seed
                                    << " b=" << g.bits_per_digit << " workers=" << workers);
    EXPECT_EQ(BuildAndHash(g.nodes, g.seed, g.bits_per_digit, workers), g.hash);
  }
}

TEST(OracleBuildTest, DefaultWorkerCountMatchesGolden) { ExpectGoldenAt(0); }

// One worker runs inline, three split unevenly, eight oversubscribe a small machine
// and exceed the node count of the smallest overlays.
TEST(OracleBuildTest, ForcedWorkerCountsMatchGolden) {
  for (const size_t workers : {1, 2, 3, 8}) {
    ExpectGoldenAt(workers);
  }
}

// From 30 chunks of 1024 nodes up, the workers install a head of chunks alone while
// the caller runs its count-only pass, so the caller owns fewer chunks than a worker.
TEST(OracleBuildTest, CallerHeadStartMatchesInlineBuild) {
  constexpr size_t kNodes = 31 * 1024;
  EXPECT_EQ(BuildAndHash(kNodes, 7, 4, 3), BuildAndHash(kNodes, 7, 4, 1));
}

}  // namespace
}  // namespace totoro
