// overlay_route / overlay_route_k2: random-key lookups from random sources over a
// 100k-node Pastry overlay built with BuildOracle. Links are 2-40 ms with the bandwidth
// model off. Lookups launch in fixed-size groups on a fixed virtual cadence, an open
// loop in virtual time, so the offered load never depends on how fast the host runs.
//
// Set-up: overlay build, deliver handlers, the lookup plan. Timed: the event loop, in
// windows of kGroupsPerWindow groups; each window yields one ops/s sample. Checked
// afterwards against a sorted id table built here: every lookup reached the live node
// numerically closest to its key, and mean hops stays within ceil(log16 N).
#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/dht/pastry_network.h"
#include "src/obs/profiler.h"
#include "src/sim/sharded_sim.h"

namespace perfbench {
namespace {

using totoro::Message;
using totoro::Network;
using totoro::NetworkConfig;
using totoro::NodeId;
using totoro::PastryConfig;
using totoro::PastryNetwork;
using totoro::PastryNode;
using totoro::ProfileScope;
using totoro::Rng;
using totoro::Simulator;
using totoro::U128;

constexpr int kLookupType = 1300;
constexpr size_t kGroupSize = 256;
constexpr double kCadenceMs = 5.0;
constexpr size_t kGroupsPerWindow = 64;
// A lookup's key carries its plan index in the low 24 bits. Node ids are ~2^111 apart
// at 100k nodes, so the index bits never decide which node is closest; the check below
// uses the full key regardless.
constexpr uint64_t kIndexBits = 24;
constexpr uint64_t kIndexMask = (uint64_t{1} << kIndexBits) - 1;

struct Lookup {
  uint32_t src = 0;
  NodeId key;
};

struct Delivery {
  double at_ms = -1.0;
  uint32_t node = UINT32_MAX;
  uint32_t hops = 0;
  uint32_t count = 0;
};

// Index of the node numerically closest to `key` on the ring (ties to the smaller id,
// as PastryNetwork::ClosestLiveNode breaks them). `sorted` holds (id, node index).
uint32_t ClosestInTable(const std::vector<std::pair<NodeId, uint32_t>>& sorted,
                        const NodeId& key) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), key,
                             [](const auto& entry, const NodeId& k) { return entry.first < k; });
  const auto& succ = it == sorted.end() ? sorted.front() : *it;
  const auto& pred = it == sorted.begin() ? sorted.back() : *(it - 1);
  const U128 ds = U128::RingDistance(succ.first, key);
  const U128 dp = U128::RingDistance(pred.first, key);
  if (ds < dp || (ds == dp && succ.first < pred.first)) {
    return succ.second;
  }
  return pred.second;
}

}  // namespace

RepResult RunOverlayRoute(const RepOptions& options, size_t sim_shards) {
  const size_t nodes = options.small ? 4000 : 100000;
  const size_t groups = options.small ? 96 : 2400;
  const size_t total = groups * kGroupSize;
  RepResult r;
  const double t0 = WallSeconds();

  std::unique_ptr<Simulator> sim;
  if (sim_shards > 1) {
    sim = std::make_unique<totoro::ShardedSimulator>(sim_shards);
  } else {
    sim = std::make_unique<Simulator>();
  }
  NetworkConfig net_config;
  net_config.model_bandwidth = false;
  Network net(sim.get(),
              std::make_unique<totoro::PairwiseUniformLatency>(2.0, 40.0, options.seed ^ 0xFEED),
              net_config);
  sim->SetLookaheadMs(net.latency_model().MinLatencyMs());
  PastryNetwork pastry(&net, PastryConfig{});
  const double rss_before_build = CurrentRssBytes();
  {
    ProfileScope scope("dht_build");
    Rng rng(options.seed);
    pastry.Reserve(nodes);
    for (size_t i = 0; i < nodes; ++i) {
      pastry.AddRandomNode(rng);
    }
    pastry.BuildOracle(rng);
  }
  const double rss_after_build = CurrentRssBytes();

  std::vector<Lookup> plan(total);
  Rng input_rng(options.seed * 0x9E3779B97F4A7C15ull + 1);
  for (size_t i = 0; i < total; ++i) {
    plan[i].src = static_cast<uint32_t>(input_rng.NextBelow(nodes));
    const uint64_t hi = input_rng.Next();
    const uint64_t lo = input_rng.Next();
    plan[i].key = NodeId(hi, (lo & ~kIndexMask) | static_cast<uint64_t>(i));
  }
  std::vector<Delivery> deliveries(total);
  {
    ProfileScope scope("dht_handlers");
    Delivery* out = deliveries.data();
    Simulator* clock = sim.get();
    // Deliveries run on the shard that owns the destination; each lookup writes only
    // its own slot, and the coordinator reads the slots after the run has joined.
    for (size_t i = 0; i < nodes; ++i) {
      pastry.node(i).SetDeliverHandler(
          kLookupType, [out, clock, i](const NodeId& key, const Message&, int hops) {
            Delivery& d = out[key.lo() & kIndexMask];
            d.at_ms = clock->Now();
            d.node = static_cast<uint32_t>(i);
            d.hops = static_cast<uint32_t>(hops);
            d.count += 1;
          });
    }
  }
  sim->ReserveEvents(1 << 16);
  r.setup_s = WallSeconds() - t0;

  // ---- Timed phase ----
  const auto& metrics = net.metrics();
  const uint64_t bytes0 = metrics.total_bytes();
  const uint64_t msgs0 = metrics.total_messages();
  const uint64_t drops0 = metrics.dropped_messages();
  const uint64_t events0 = sim->events_fired();
  const uint64_t cancelled0 = sim->events_cancelled();
  const double loop_wall0 = sim->run_wall_seconds();
  // Deliveries complete out of order; count them by advancing past the delivered
  // prefix and scanning only the in-flight tail.
  size_t prefix = 0;
  auto delivered_so_far = [&](size_t launched) {
    while (prefix < launched && deliveries[prefix].count > 0) {
      ++prefix;
    }
    uint64_t n = prefix;
    for (size_t i = prefix; i < launched; ++i) {
      n += deliveries[i].count > 0 ? 1 : 0;
    }
    return n;
  };
  const double timed_start = WallSeconds();
  uint64_t delivered_before = 0;
  for (size_t g0 = 0; g0 < groups; g0 += kGroupsPerWindow) {
    const size_t g1 = std::min(groups, g0 + kGroupsPerWindow);
    for (size_t g = g0; g < g1; ++g) {
      sim->ScheduleAt(static_cast<double>(g) * kCadenceMs,
                      [s = sim.get(), p = &pastry, lookups = plan.data(), g]() {
                        for (size_t i = g * kGroupSize; i < (g + 1) * kGroupSize; ++i) {
                          const Lookup& lookup = lookups[i];
                          PastryNode& src = p->node(lookup.src);
                          // The source is the scheduling identity, so the hop chain
                          // carries canonical per-host event keys on the sharded engine.
                          s->RunAsHost(src.host(), [&src, &lookup] {
                            Message m;
                            m.type = kLookupType;
                            src.Route(lookup.key, std::move(m));
                          });
                        }
                      });
    }
    const double w0 = WallSeconds();
    {
      ProfileScope scope("sim");
      sim->RunUntil((static_cast<double>(g1) - 0.5) * kCadenceMs);
    }
    const double window_s = WallSeconds() - w0;
    const uint64_t delivered = delivered_so_far(g1 * kGroupSize);
    r.rate_samples.push_back(static_cast<double>(delivered - delivered_before) / window_s);
    delivered_before = delivered;
  }
  {
    ProfileScope scope("sim");
    sim->Run();  // Drains the lookups still in flight.
  }
  r.timed_s = WallSeconds() - timed_start;

  // ---- Output checks (outside the timed phase) ----
  std::vector<std::pair<NodeId, uint32_t>> table(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    table[i] = {pastry.node(i).id(), static_cast<uint32_t>(i)};
  }
  std::sort(table.begin(), table.end());
  VirtualResult& v = r.v;
  v.attempted = total;
  std::vector<double> latency;
  latency.reserve(total);
  uint64_t hops_total = 0;
  uint64_t fp = kFingerprintSeed;
  double last_ms = 0.0;
  for (size_t i = 0; i < total; ++i) {
    const Delivery& d = deliveries[i];
    if (d.count != 1 || d.node != ClosestInTable(table, plan[i].key)) {
      ++v.failed;
    }
    if (d.count == 0) {
      continue;
    }
    ++v.ops;
    const double launch_ms = static_cast<double>(i / kGroupSize) * kCadenceMs;
    latency.push_back(d.at_ms - launch_ms);
    hops_total += d.hops;
    last_ms = std::max(last_ms, d.at_ms);
    fp = Mix(fp, (static_cast<uint64_t>(d.node) << 32) | d.hops);
    fp = MixDouble(fp, d.at_ms);
  }
  const uint64_t bytes = metrics.total_bytes() - bytes0;
  fp = Mix(Mix(fp, bytes), metrics.total_messages() - msgs0);
  v.fingerprint = fp;
  if (v.ops > 0) {
    v.op_virtual_ms_p50 = Quantile(latency, 0.5);
    v.op_virtual_ms_p90 = Quantile(latency, 0.9);
    v.wire_bytes_per_op = static_cast<double>(bytes) / static_cast<double>(v.ops);
  }
  v.tta_virtual_s = last_ms / 1000.0;
  const double mean_hops =
      v.ops == 0 ? 0.0 : static_cast<double>(hops_total) / static_cast<double>(v.ops);
  const double hop_bound = std::ceil(std::log(static_cast<double>(nodes)) / std::log(16.0));
  if (v.failed > 0) {
    r.error = std::to_string(v.failed) + " lookups not delivered exactly once to the "
              "numerically closest live node";
  } else if (mean_hops > hop_bound) {
    r.error = "mean hops " + std::to_string(mean_hops) + " exceeds ceil(log16 N) = " +
              std::to_string(hop_bound);
    v.failed = v.attempted;
  }

  if (options.traced) {
    const totoro::Profiler& prof = totoro::GlobalProfiler();
    const double loop_s = sim->run_wall_seconds() - loop_wall0;
    const double events = static_cast<double>(sim->events_fired() - events0);
    r.layers = {
        {"dht.build_s", PhaseWall(prof, "dht_build")},
        {"dht.bytes_per_host",
         (rss_after_build - rss_before_build) / static_cast<double>(nodes)},
        {"dht.hops_mean", HistogramMean("dht.route.hops")},
        {"dht.hops_p90", HistogramQuantile("dht.route.hops", 0.9)},
        {"sim.run_s", loop_s},
        {"sim.self_s", PhaseWall(prof, "sim_run", "sim", /*self=*/true)},
        {"sim.events", events},
        {"sim.events_per_s", events / loop_s},
        {"sim.events_cancelled", static_cast<double>(sim->events_cancelled() - cancelled0)},
        {"net.msgs", static_cast<double>(metrics.total_messages() - msgs0)},
        {"net.bytes", static_cast<double>(bytes)},
        {"net.drops", static_cast<double>(metrics.dropped_messages() - drops0)},
        {"obs.unattributed_s", r.timed_s - PhaseWall(prof, "sim")},
    };
  }
  return r;
}

}  // namespace perfbench
