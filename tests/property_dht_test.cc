// Property-style tests of the DHT layer, swept over overlay sizes and routing bases.
//
// Invariants checked on every (N, b, seed) combination:
//   - routed messages always reach the node numerically closest to the key
//   - hop counts respect the ceil(log_{2^b} N) + slack bound
//   - routing-table entries always sit at (row = shared prefix, col = next digit)
//   - leaf sets hold exactly the nearest ring neighbors
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/dht/pastry_network.h"
#include "src/faultsim/fault_injector.h"
#include "src/faultsim/fault_script.h"
#include "src/faultsim/invariant_checker.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/pubsub/forest.h"

namespace totoro {
namespace {

struct OverlayParams {
  size_t n;
  int bits;
  uint64_t seed;
};

void PrintTo(const OverlayParams& p, std::ostream* os) {
  *os << "N=" << p.n << " b=" << p.bits << " seed=" << p.seed;
}

class OverlayPropertyTest : public ::testing::TestWithParam<OverlayParams> {
 protected:
  void SetUp() override {
    const auto p = GetParam();
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    net_ = std::make_unique<Network>(
        &sim_, std::make_unique<PairwiseUniformLatency>(1.0, 20.0, p.seed), net_config);
    PastryConfig config;
    config.bits_per_digit = p.bits;
    pastry_ = std::make_unique<PastryNetwork>(net_.get(), config);
    Rng rng(p.seed);
    for (size_t i = 0; i < p.n; ++i) {
      pastry_->AddRandomNode(rng);
    }
    pastry_->BuildOracle(rng);
  }

  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<PastryNetwork> pastry_;
};

TEST_P(OverlayPropertyTest, EveryRouteReachesTheClosestNodeWithinHopBound) {
  const auto p = GetParam();
  Rng rng(p.seed + 1);
  NodeId delivered_at;
  int delivered_hops = -1;
  for (size_t i = 0; i < pastry_->size(); ++i) {
    pastry_->node(i).SetDeliverHandler(500, [&, i](const NodeId&, const Message&, int hops) {
      delivered_at = pastry_->node(i).id();
      delivered_hops = hops;
    });
  }
  const int hop_bound =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(p.n)) / p.bits)) + 2;
  for (int t = 0; t < 30; ++t) {
    const NodeId key = RandomNodeId(rng);
    PastryNode& origin = pastry_->node(rng.NextBelow(pastry_->size()));
    delivered_hops = -1;
    Message m;
    m.type = 500;
    origin.Route(key, std::move(m));
    sim_.Run();
    ASSERT_GE(delivered_hops, 0);
    EXPECT_EQ(delivered_at, pastry_->ClosestLiveNode(key)->id());
    EXPECT_LE(delivered_hops, hop_bound);
  }
}

TEST_P(OverlayPropertyTest, RoutingTableEntriesSitAtCorrectSlots) {
  const auto p = GetParam();
  for (size_t i = 0; i < pastry_->size(); ++i) {
    const PastryNode& node = pastry_->node(i);
    const NodeId self = node.id();
    node.routing_table().ForEach([&](const RouteEntry& e) {
      const int row = self.CommonPrefixDigits(e.id, p.bits);
      const uint32_t col = e.id.Digit(row, p.bits);
      const auto slot = node.routing_table().Get(row, col);
      ASSERT_TRUE(slot.has_value());
      EXPECT_EQ(slot->id, e.id);
      EXPECT_NE(col, self.Digit(row, p.bits));
    });
  }
}

TEST_P(OverlayPropertyTest, LeafSetsHoldExactRingNeighbors) {
  // Collect all ids sorted; every node's immediate cw/ccw leaf must be its true ring
  // successor/predecessor.
  std::vector<NodeId> sorted;
  for (size_t i = 0; i < pastry_->size(); ++i) {
    sorted.push_back(pastry_->node(i).id());
  }
  std::sort(sorted.begin(), sorted.end());
  auto successor = [&](const NodeId& id) {
    auto it = std::upper_bound(sorted.begin(), sorted.end(), id);
    return it == sorted.end() ? sorted.front() : *it;
  };
  for (size_t i = 0; i < pastry_->size(); ++i) {
    const PastryNode& node = pastry_->node(i);
    const auto cw = node.leaf_set().CwNeighbor();
    ASSERT_TRUE(cw.has_value());
    EXPECT_EQ(cw->id, successor(node.id()))
        << "node " << node.id().ToHex() << " has wrong successor";
  }
}

TEST_P(OverlayPropertyTest, RoutingIsDeterministic) {
  const auto p = GetParam();
  Rng rng(p.seed + 9);
  const NodeId key = RandomNodeId(rng);
  PastryNode& origin = pastry_->node(0);
  // The pure next-hop decision must be stable under repetition.
  const RouteEntry first = origin.ComputeNextHop(key);
  for (int i = 0; i < 5; ++i) {
    const RouteEntry again = origin.ComputeNextHop(key);
    EXPECT_EQ(again.id, first.id);
    EXPECT_EQ(again.host, first.host);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, OverlayPropertyTest,
                         ::testing::Values(OverlayParams{30, 4, 1}, OverlayParams{100, 4, 2},
                                           OverlayParams{100, 3, 3}, OverlayParams{300, 2, 4},
                                           OverlayParams{300, 5, 5},
                                           OverlayParams{1000, 4, 6},
                                           OverlayParams{2000, 3, 7}));

// ---------- Leaf-set randomized invariants ----------

class LeafSetFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LeafSetFuzzTest, InsertOnlyPhaseHoldsExactNearestNeighbors) {
  // Without removals the clockwise side is exactly the 4 clockwise-nearest candidates
  // ever offered, in order.
  Rng rng(GetParam());
  const NodeId self = RandomNodeId(rng);
  LeafSet ls(8);
  std::vector<RouteEntry> inserted;
  for (int op = 0; op < 200; ++op) {
    RouteEntry e{RandomNodeId(rng), static_cast<HostId>(op)};
    if (e.id == self) {
      continue;
    }
    ls.Consider(self, e);
    inserted.push_back(e);
    std::sort(inserted.begin(), inserted.end(), [&](const RouteEntry& a, const RouteEntry& b) {
      return U128::ClockwiseDistance(self, a.id) < U128::ClockwiseDistance(self, b.id);
    });
    const auto cw = ls.clockwise();
    const size_t expect = std::min<size_t>(4, inserted.size());
    ASSERT_EQ(cw.size(), expect);
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(cw[i].id, inserted[i].id) << "cw slot " << i << " after op " << op;
    }
  }
}

TEST_P(LeafSetFuzzTest, MixedOpsKeepStructuralInvariants) {
  // With removals interleaved the set cannot resurrect evicted entries (that is what
  // leaf-set repair messages are for), but structural invariants must always hold:
  // sorted-by-distance sides, only offered ids present, capacity respected, and a
  // re-offered nearer candidate is always accepted.
  Rng rng(GetParam() ^ 0xF00D);
  const NodeId self = RandomNodeId(rng);
  LeafSet ls(8);
  std::vector<RouteEntry> offered;
  for (int op = 0; op < 300; ++op) {
    if (!offered.empty() && rng.Bernoulli(0.25)) {
      const size_t victim = rng.NextBelow(offered.size());
      ls.Remove(offered[victim].id);
    } else {
      RouteEntry e{RandomNodeId(rng), static_cast<HostId>(op)};
      if (e.id == self) {
        continue;
      }
      ls.Consider(self, e);
      offered.push_back(e);
    }
    const auto cw = ls.clockwise();
    ASSERT_LE(cw.size(), 4u);
    for (size_t i = 1; i < cw.size(); ++i) {
      EXPECT_LT(U128::ClockwiseDistance(self, cw[i - 1].id),
                U128::ClockwiseDistance(self, cw[i].id))
          << "cw side out of order after op " << op;
    }
    for (const auto& e : cw) {
      const bool known = std::any_of(offered.begin(), offered.end(),
                                     [&](const RouteEntry& o) { return o.id == e.id; });
      EXPECT_TRUE(known);
    }
  }
  // A candidate strictly nearer than the current nearest always gets accepted.
  const auto cw = ls.clockwise();
  if (!cw.empty()) {
    const U128 nearest = U128::ClockwiseDistance(self, cw[0].id);
    if (nearest > U128(0, 1)) {
      const RouteEntry closer{self + U128(0, 1), 9999};
      EXPECT_TRUE(ls.Consider(self, closer));
      EXPECT_EQ(ls.clockwise()[0].id, closer.id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafSetFuzzTest, ::testing::Range<uint64_t>(40, 48));

// ---------- Packed routing rows against a dense reference ----------

bool SameEntry(const RouteEntry& a, const RouteEntry& b) {
  return a.id == b.id && a.host == b.host;
}

bool SameEntry(const std::optional<RouteEntry>& a, const std::optional<RouteEntry>& b) {
  return a.has_value() == b.has_value() && (!a.has_value() || SameEntry(*a, *b));
}

bool SameEntries(const std::vector<RouteEntry>& a, const std::vector<RouteEntry>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(),
                                            [](const auto& x, const auto& y) {
                                              return SameEntry(x, y);
                                            });
}

// The routing table as a plain [row][column] array with RoutingTable's documented
// rules: an empty slot takes any candidate, and a holder yields only to itself at a new
// host or to a strictly closer node.
class DenseTableModel {
 public:
  DenseTableModel(NodeId self, int bits)
      : self_(self),
        bits_(bits),
        digits_(128 / bits),
        slots_(static_cast<size_t>(digits_) << bits),
        held_(static_cast<size_t>(digits_)) {}

  bool Consider(const RouteEntry& e, double prox, ProximityFn proximity) {
    std::optional<RouteEntry>* slot = SlotFor(e.id);
    if (slot == nullptr) {
      return false;
    }
    held_[static_cast<size_t>(self_.CommonPrefixDigits(e.id, bits_))] = true;
    const bool wins = !slot->has_value() ||
                      ((*slot)->id == e.id ? (*slot)->host != e.host
                                           : prox < proximity((*slot)->host));
    if (wins) {
      *slot = e;
    }
    return wins;
  }

  bool Remove(const NodeId& id) {
    std::optional<RouteEntry>* slot = SlotFor(id);
    if (slot == nullptr || !slot->has_value() || (*slot)->id != id) {
      return false;
    }
    slot->reset();
    return true;
  }

  std::optional<RouteEntry> Get(int row, uint32_t col) const {
    return slots_[(static_cast<size_t>(row) << bits_) + col];
  }

  std::optional<RouteEntry> NextHop(const NodeId& key) const {
    const int row = self_.CommonPrefixDigits(key, bits_);
    return row >= digits_ ? std::nullopt : Get(row, key.Digit(row, bits_));
  }

  std::vector<RouteEntry> Row(int row) const {
    std::vector<RouteEntry> out;
    for (uint32_t col = 0; row >= 0 && row < digits_ && col < (1u << bits_); ++col) {
      if (const auto e = Get(row, col); e.has_value()) {
        out.push_back(*e);
      }
    }
    return out;
  }

  std::vector<RouteEntry> All() const {
    std::vector<RouteEntry> out;
    for (int row = 0; row < digits_; ++row) {
      for (const RouteEntry& e : Row(row)) {
        out.push_back(e);
      }
    }
    return out;
  }

  size_t NumRows() const {
    return static_cast<size_t>(std::count(held_.begin(), held_.end(), true));
  }

  std::optional<RouteEntry> CloserFallback(const NodeId& key, AliveFn alive) const {
    const int self_prefix = self_.CommonPrefixDigits(key, bits_);
    std::optional<RouteEntry> best;
    U128 best_dist = U128::RingDistance(self_, key);
    for (int row = self_prefix; row < digits_; ++row) {
      for (const RouteEntry& e : Row(row)) {
        if ((alive && !alive(e)) || e.id.CommonPrefixDigits(key, bits_) < self_prefix) {
          continue;
        }
        if (U128::RingDistance(e.id, key) < best_dist) {
          best_dist = U128::RingDistance(e.id, key);
          best = e;
        }
      }
    }
    return best;
  }

 private:
  std::optional<RouteEntry>* SlotFor(const NodeId& id) {
    const int row = self_.CommonPrefixDigits(id, bits_);
    if (row >= digits_) {
      return nullptr;
    }
    return &slots_[(static_cast<size_t>(row) << bits_) + id.Digit(row, bits_)];
  }

  NodeId self_;
  int bits_;
  int digits_;
  std::vector<std::optional<RouteEntry>> slots_;
  std::vector<bool> held_;  // Rows that ever held an entry.
};

class PackedRowsTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedRowsTest, MatchDenseReferenceUnderRandomOps) {
  const int bits = GetParam();
  const int digits = 128 / bits;
  constexpr size_t kHosts = 32;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 1000 + static_cast<uint64_t>(bits));
    const NodeId self = RandomNodeId(rng);
    RoutingTable table(self, bits);
    RoutingTable::DenseRows staged;
    DenseTableModel model(self, bits);
    // Proximity by host from four values, so contests tie often.
    std::vector<double> prox_ms(kHosts);
    for (double& p : prox_ms) {
      p = static_cast<double>(rng.NextBelow(4));
    }
    const ProximityFn proximity{[](const void* ctx, HostId host) {
                                  return (*static_cast<const std::vector<double>*>(ctx))[host];
                                },
                                &prox_ms};
    // An id sharing a uniformly drawn number of digits with self (all of them, and
    // self itself, included), so every row sees traffic.
    const auto near_id = [&] {
      const int shared_bits =
          static_cast<int>(rng.NextBelow(static_cast<uint64_t>(digits) + 1)) * bits;
      const U128 keep = shared_bits == 0 ? U128(0, 0) : U128::Max() << (128 - shared_bits);
      return (self & keep) | (RandomNodeId(rng) & ~keep);
    };
    const auto offer = [&](const NodeId& id, bool bulk) {
      const RouteEntry e{id, static_cast<HostId>(rng.NextBelow(kHosts))};
      const bool changed = bulk ? staged.Consider(e, prox_ms[e.host], proximity)
                                : table.Consider(e, prox_ms[e.host], proximity);
      EXPECT_EQ(changed, model.Consider(e, prox_ms[e.host], proximity));
    };
    const AliveFn odd_hosts{[](const void*, const RouteEntry& e) { return e.host % 2 == 1; },
                            nullptr};
    std::vector<NodeId> seen;
    for (int op = 0; op < 300; ++op) {
      SCOPED_TRACE(testing::Message() << "b=" << bits << " seed=" << seed << " op=" << op);
      const NodeId fresh = near_id();
      const NodeId id =
          seen.empty() || rng.Bernoulli(0.5) ? fresh : seen[rng.NextBelow(seen.size())];
      seen.push_back(id);
      const uint64_t kind = rng.NextBelow(10);
      if (kind < 6) {
        offer(id, /*bulk=*/false);
      } else if (kind < 9) {
        EXPECT_EQ(table.Remove(id), model.Remove(id));
      } else {
        staged.Load(table);
        for (int i = 0; i < 6; ++i) {
          offer(rng.Bernoulli(0.5) ? near_id() : seen[rng.NextBelow(seen.size())],
                /*bulk=*/true);
        }
        table.Assign(staged);
      }

      ASSERT_EQ(table.NumEntries(), model.All().size());
      ASSERT_EQ(table.NumRows(), model.NumRows());
      std::vector<RouteEntry> visited;
      table.ForEach([&](const RouteEntry& e) { visited.push_back(e); });
      ASSERT_TRUE(SameEntries(visited, model.All()));
      for (int row = -1; row <= digits; ++row) {
        ASSERT_TRUE(SameEntries(table.Row(row), model.Row(row))) << "row " << row;
      }
      for (int row = 0; row < digits; ++row) {
        for (uint32_t col = 0; col < (1u << bits); ++col) {
          ASSERT_TRUE(SameEntry(table.Get(row, col), model.Get(row, col)));
        }
      }
      for (int probe = 0; probe < 8; ++probe) {
        const NodeId key = near_id();
        const RouteEntry* hop = table.NextHopPtr(key);
        ASSERT_TRUE(SameEntry(hop != nullptr ? std::optional<RouteEntry>(*hop) : std::nullopt,
                              model.NextHop(key)));
        ASSERT_TRUE(SameEntry(table.CloserFallback(key), model.CloserFallback(key, {})));
        ASSERT_TRUE(
            SameEntry(table.CloserFallback(key, odd_hosts), model.CloserFallback(key, odd_hosts)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, PackedRowsTest, ::testing::Values(1, 4, 5, 7));

// ---------- Churn sweep ----------

class ChurnSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnSweepTest, RoutingSurvivesThirtyPercentFailures) {
  Simulator sim;
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, GetParam()),
              net_config);
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  pastry.FailRandomNodes(60, rng);
  int delivered = 0;
  int correct = 0;
  NodeId delivered_at;
  for (size_t i = 0; i < pastry.size(); ++i) {
    pastry.node(i).SetDeliverHandler(500, [&, i](const NodeId&, const Message&, int) {
      ++delivered;
      delivered_at = pastry.node(i).id();
    });
  }
  int sent = 0;
  for (int t = 0; t < 40; ++t) {
    PastryNode& origin = pastry.node(rng.NextBelow(pastry.size()));
    if (!origin.alive()) {
      continue;
    }
    const NodeId key = RandomNodeId(rng);
    PastryNode* expected = pastry.ClosestLiveNode(key);
    Message m;
    m.type = 500;
    origin.Route(key, std::move(m));
    sim.Run();
    ++sent;
    if (delivered == sent && delivered_at == expected->id()) {
      ++correct;
    }
  }
  EXPECT_EQ(delivered, sent);  // No message lost despite 30% dead nodes.
  // Liveness-aware fallback may occasionally deliver to the second-closest live node
  // when tables are stale; demand a high hit rate, not perfection.
  EXPECT_GE(correct, sent * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnSweepTest, ::testing::Range<uint64_t>(60, 66));

// ---------- Randomized fault-script sweep (overlay level) ----------

struct OverlayFaultOutcome {
  size_t violations = 0;
  int routed = 0;
  int correct = 0;
  std::string metrics_json;
};

// Runs a random-but-seeded fault script against a bare overlay (no trees), then checks
// the ring invariant and routing correctness after the convergence tail.
OverlayFaultOutcome RunOverlayFaultTrial(uint64_t seed) {
  GlobalMetrics().ResetValues();
  OverlayFaultOutcome out;
  {
    Simulator sim;
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, seed), net_config);
    PastryConfig pastry_config;
    pastry_config.enable_keepalive = true;
    pastry_config.keepalive_interval_ms = 200.0;
    pastry_config.keepalive_timeout_ms = 700.0;
    PastryNetwork pastry(&net, pastry_config);
    Rng rng(seed);
    const size_t n = 60;
    for (size_t i = 0; i < n; ++i) {
      pastry.AddRandomNode(rng);
    }
    pastry.BuildOracle(rng);
    for (size_t i = 0; i < pastry.size(); ++i) {
      pastry.node(i).StartKeepAlive();
    }
    // The checker needs a forest even when no topic is watched; keep it empty.
    Forest forest(&pastry, ScribeConfig{});

    FaultInjector injector(&pastry, &forest, seed + 1);
    InvariantCheckerConfig checker_config;
    checker_config.convergence_grace_ms = 9000.0;
    InvariantChecker checker(&pastry, &forest, checker_config);
    checker.SetFaultInjector(&injector);
    checker.Start();

    Rng script_rng(seed + 2);
    const double duration = 15000.0;
    RandomScriptOptions opts;
    opts.max_crashes = 3;
    const FaultScript script = GenerateRandomFaultScript(script_rng, n, duration, opts);
    injector.Schedule(script);
    sim.RunFor(duration + 10000.0);
    checker.CheckConverged();
    checker.Stop();
    out.violations = checker.violations().size();
    if (!checker.violations().empty()) {
      ADD_FAILURE() << "first violation: " << checker.violations()[0].invariant << " ("
                    << checker.violations()[0].detail << ") at t="
                    << checker.violations()[0].at;
    }

    // Routing ground truth after recovery: every delivery lands on the closest live
    // node (all crashed hosts have rejoined, so the whole ring is live again).
    NodeId delivered_at;
    int delivered = 0;
    for (size_t i = 0; i < pastry.size(); ++i) {
      pastry.node(i).SetDeliverHandler(500, [&, i](const NodeId&, const Message&, int) {
        ++delivered;
        delivered_at = pastry.node(i).id();
      });
    }
    Rng probe_rng(seed + 3);
    for (int t = 0; t < 25; ++t) {
      const NodeId key = RandomNodeId(probe_rng);
      PastryNode& origin = pastry.node(probe_rng.NextBelow(pastry.size()));
      if (!origin.alive()) {
        continue;
      }
      const int before = delivered;
      Message m;
      m.type = 500;
      origin.Route(key, std::move(m));
      sim.RunFor(500.0);
      ++out.routed;
      if (delivered == before + 1 && delivered_at == pastry.ClosestLiveNode(key)->id()) {
        ++out.correct;
      }
    }
  }
  out.metrics_json = MetricsToJson(GlobalMetrics());
  GlobalMetrics().ResetValues();
  return out;
}

class OverlayFaultSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverlayFaultSweepTest, RingRecoversRoutesCorrectlyAndReplaysBitIdentically) {
  const OverlayFaultOutcome a = RunOverlayFaultTrial(GetParam());
  EXPECT_EQ(a.violations, 0u);
  ASSERT_GT(a.routed, 0);
  EXPECT_EQ(a.correct, a.routed) << "post-recovery routing missed the rendezvous node";
  const OverlayFaultOutcome b = RunOverlayFaultTrial(GetParam());
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.metrics_json, b.metrics_json) << "metrics export differs between replays";
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayFaultSweepTest, ::testing::Range<uint64_t>(150, 153));

// ---------- Learn memo exactness: twin nodes ----------

// One small overlay, nodes added but no tables built. Node 0 is the twin under test;
// with `keepalive` it gets keep-alive state, which turns its Learn memo on. Small leaf
// and neighborhood sets keep offers contending, so tables change often.
struct TwinStack {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;

  TwinStack(bool keepalive, size_t n, uint64_t seed) {
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    net = std::make_unique<Network>(
        &sim, std::make_unique<PairwiseUniformLatency>(1.0, 20.0, seed), net_config);
    PastryConfig config;
    config.leaf_set_size = 8;
    config.neighborhood_size = 4;
    config.enable_keepalive = keepalive;
    pastry = std::make_unique<PastryNetwork>(net.get(), config);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      pastry->AddRandomNode(rng);
    }
    if (keepalive) {
      pastry->node(0).StartKeepAlive();
    }
  }

  PastryNode& twin() { return pastry->node(0); }
};

// Everything a Learn can change, rendered so two nodes compare as strings.
std::string TwinState(const PastryNode& node, const Network& net) {
  std::ostringstream out;
  out << std::setprecision(17) << "leaf:";
  const auto entry = [&out](const RouteEntry& e) { out << ' ' << e.id.ToHex() << '@' << e.host; };
  for (const RouteEntry& e : node.leaf_set().All()) {
    entry(e);
  }
  out << "\nrouting:";
  node.routing_table().ForEach(entry);
  out << "\nneighborhood:";
  for (const NeighborhoodSet::Member& m : node.neighborhood_set().members()) {
    entry(m.entry);
    out << '/' << m.proximity_ms;
  }
  const HostWork& work = net.metrics().work(node.host());
  out << "\ndht work " << work.work_units[static_cast<size_t>(WorkKind::kDhtTask)]
      << ", state bytes " << work.state_bytes;
  return out.str();
}

class TwinNodeMemoTest : public ::testing::TestWithParam<uint64_t> {};

// The memo must be invisible: one seeded sequence of offers (known entries, new ones,
// known hosts under new ids, leaf-repair batches), ReportDead calls (some between two
// offers of the entry) and non-const table accesses, some of them writes, leaves both
// twins with the same tables and accounting after every step.
TEST_P(TwinNodeMemoTest, MemoizedNodeMatchesPlainNodeAfterEveryStep) {
  const uint64_t seed = GetParam();
  const size_t n = 48;
  TwinStack memo(/*keepalive=*/true, n, seed);
  TwinStack plain(/*keepalive=*/false, n, seed);
  // Offers start from the overlay's real entries (not node 0's own).
  std::vector<RouteEntry> pool;
  for (size_t i = 1; i < n; ++i) {
    const PastryNode& node = plain.pastry->node(i);
    pool.push_back(RouteEntry{node.id(), node.host()});
  }
  Rng rng(seed + 1);
  const auto known = [&] { return pool[rng.NextBelow(pool.size())]; };
  const auto other_host = [&] { return static_cast<HostId>(1 + rng.NextBelow(n - 1)); };
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    std::function<void(PastryNode&)> action;
    if (op < 45) {
      const RouteEntry e = known();
      action = [e](PastryNode& node) { node.Learn(e); };
    } else if (op < 53) {
      const RouteEntry e{RandomNodeId(rng), other_host()};  // A known host, a new id.
      pool.push_back(e);
      action = [e](PastryNode& node) { node.Learn(e); };
    } else if (op < 58) {
      const RouteEntry e{known().id, other_host()};  // A known id at another host.
      pool.push_back(e);
      action = [e](PastryNode& node) { node.Learn(e); };
    } else if (op < 72) {
      std::vector<RouteEntry> batch(1 + rng.NextBelow(9));
      for (RouteEntry& e : batch) {
        e = known();
      }
      action = [batch](PastryNode& node) {
        for (const RouteEntry& e : batch) {
          node.Learn(e);
        }
      };
    } else if (op < 77) {
      const RouteEntry e = known();
      action = [e](PastryNode& node) { node.ReportDead(e.id, e.host); };
    } else if (op < 82) {
      // A suspect that answers: declared dead between two offers of the same entry.
      const RouteEntry e = known();
      action = [e](PastryNode& node) {
        node.Learn(e);
        node.ReportDead(e.id, e.host);
        node.Learn(e);
      };
    } else if (op < 91) {
      // A write through a non-const accessor, past Learn and ReportDead, between two
      // offers of the entry it removes.
      const RouteEntry e = known();
      const uint64_t table = rng.NextBelow(3);
      action = [e, table](PastryNode& node) {
        node.Learn(e);
        if (table == 0) {
          node.routing_table().Remove(e.id);
        } else if (table == 1) {
          node.leaf_set().Remove(e.id);
        } else {
          node.neighborhood_set().Remove(e.id);
        }
        node.Learn(e);
      };
    } else {
      action = [](PastryNode& node) { (void)node.leaf_set().NumEntries(); };
    }
    action(memo.twin());
    action(plain.twin());
    ASSERT_EQ(TwinState(memo.twin(), *memo.net), TwinState(plain.twin(), *plain.net))
        << "seed " << seed << ", step " << step << ", op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwinNodeMemoTest, ::testing::Range<uint64_t>(170, 176));

}  // namespace
}  // namespace totoro
