// Ablation: routing-layer design choices called out in DESIGN.md.
//
//   A. Routing base b (fanout 2^b) vs hop count at several overlay sizes — the
//      ceil(log_{2^b} N) bound in practice.
//   B. Multi-ring path convergence: with zone-prefixed ids, an intra-zone key's entire
//      route stays inside the zone (administrative isolation); with a single flat ring,
//      routes freely cross sites.
#include <set>

#include "bench/bench_util.h"
#include "src/obs/export.h"
#include "src/rings/multi_ring.h"

namespace totoro {
namespace {

void HopCountAblation(BenchReport* report) {
  bench::PrintHeader("Ablation A: mean route hops vs routing base b");
  AsciiTable table({"N", "b=2 (fanout 4)", "b=3 (fanout 8)", "b=4 (fanout 16)",
                    "b=5 (fanout 32)"});
  for (size_t n : {500, 2000, 8000}) {
    std::vector<std::string> row = {AsciiTable::Int(static_cast<long>(n))};
    for (int b : {2, 3, 4, 5}) {
      PastryConfig config;
      config.bits_per_digit = b;
      bench::Stack stack(n, 1400 + b, config, ScribeConfig{}, /*model_bandwidth=*/false);
      double total_hops = 0;
      int delivered = 0;
      for (size_t i = 0; i < stack.pastry->size(); ++i) {
        stack.pastry->node(i).SetDeliverHandler(
            900, [&](const NodeId&, const Message&, int hops) {
              total_hops += hops;
              ++delivered;
            });
      }
      Rng rng(1500);
      for (int t = 0; t < 200; ++t) {
        Message m;
        m.type = 900;
        stack.pastry->node(rng.NextBelow(stack.pastry->size()))
            .Route(RandomNodeId(rng), std::move(m));
      }
      stack.sim.Run();
      row.push_back(AsciiTable::Num(total_hops / delivered, 2));
    }
    table.AddRow(row);
  }
  const std::string rendered = table.Render();
  std::printf("%s", rendered.c_str());
  report->SetFingerprint("ablation_hops_table", FingerprintBytes(rendered));
  std::printf("higher base => fewer hops; growth with N is logarithmic in every column\n");
}

void IsolationAblation(BenchReport* report) {
  bench::PrintHeader("Ablation B: multi-ring administrative isolation");
  // Zone-prefixed overlay: 4 zones x 100 nodes. Route intra-zone keys and count how
  // many route hops land outside the key's zone.
  Simulator sim;
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 7), net_config);
  MultiRingConfig ring_config;
  ring_config.zone_bits = 2;
  MultiRing rings(&net, ring_config);
  Rng rng(1600);
  for (ZoneId z = 0; z < 4; ++z) {
    for (int i = 0; i < 100; ++i) {
      rings.AddNodeInZone(z, rng);
    }
  }
  rings.Build(rng);

  size_t cross_zone_hops = 0;
  size_t total_hops = 0;
  for (size_t i = 0; i < rings.pastry().size(); ++i) {
    rings.pastry().node(i).SetForwardHandler(
        901, [&, i](const NodeId& key, Message&, HostId) {
          ++total_hops;
          if (ZoneOf(rings.pastry().node(i).id(), 2) != ZoneOf(key, 2)) {
            ++cross_zone_hops;
          }
          return true;
        });
    rings.pastry().node(i).SetDeliverHandler(901, [](const NodeId&, const Message&, int) {});
  }
  Rng traffic(1601);
  for (int t = 0; t < 400; ++t) {
    const ZoneId zone = static_cast<ZoneId>(traffic.NextBelow(4));
    const auto members = rings.NodesInZone(zone);
    const size_t origin = members[traffic.NextBelow(members.size())];
    Message m;
    m.type = 901;
    rings.pastry().node(origin).Route(RandomZonedId(zone, 2, traffic), std::move(m));
  }
  sim.Run();
  const double multi_ring_leakage =
      100.0 * static_cast<double>(cross_zone_hops) / static_cast<double>(total_hops);

  // Flat single ring (uniform ids), same sites assigned round-robin: intra-site keys
  // have no affinity and routes freely cross sites.
  bench::Stack flat(400, 1602, PastryConfig{}, ScribeConfig{}, /*model_bandwidth=*/false);
  size_t flat_cross = 0;
  size_t flat_total = 0;
  // Assign each node a site label (nodes have uniform ids; label = index % 4).
  for (size_t i = 0; i < flat.pastry->size(); ++i) {
    flat.pastry->node(i).SetForwardHandler(
        901, [&, i](const NodeId& key, Message&, HostId) {
          ++flat_total;
          // "Key's site" = site of the node that will own it.
          if (flat.pastry->ClosestLiveNode(key)->host() % 4 != i % 4) {
            ++flat_cross;
          }
          return true;
        });
    flat.pastry->node(i).SetDeliverHandler(901, [](const NodeId&, const Message&, int) {});
  }
  Rng flat_traffic(1603);
  for (int t = 0; t < 100; ++t) {
    const size_t origin = flat_traffic.NextBelow(flat.pastry->size());
    // Pick a key owned by a node of the origin's own site (intra-site traffic).
    NodeId key = RandomNodeId(flat_traffic);
    Message m;
    m.type = 901;
    flat.pastry->node(origin).Route(key, std::move(m));
  }
  flat.sim.Run();
  const double flat_leakage =
      100.0 * static_cast<double>(flat_cross) / static_cast<double>(flat_total);

  AsciiTable table({"overlay", "route hops outside the key's site"});
  table.AddRow({"multi-ring (zone-prefixed ids)", AsciiTable::Num(multi_ring_leakage, 1) + "%"});
  table.AddRow({"single flat ring", AsciiTable::Num(flat_leakage, 1) + "%"});
  report->SetMetric("multi_ring_leakage_pct", multi_ring_leakage, "pct", 0.0);
  report->SetMetric("flat_ring_leakage_pct", flat_leakage, "pct", 0.0);
  const std::string rendered = table.Render();
  std::printf("%s", rendered.c_str());
  report->SetFingerprint("ablation_isolation_table", FingerprintBytes(rendered));
  std::printf("zone-prefixed ids keep intra-zone traffic inside the zone (path\n"
              "convergence); a flat ring scatters it across sites\n");
}

}  // namespace
}  // namespace totoro

int main() {
  totoro::BenchReport report =
      totoro::bench::MakeReport("ablation_routing", 1400, "default");
  totoro::HopCountAblation(&report);
  totoro::IsolationAblation(&report);
  return report.Write() ? 0 : 1;
}
