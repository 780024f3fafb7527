// Reproduces Figure 7: Totoro's communication cost vs number of dataflow trees.
//
// Measures per-node maintenance traffic (TCP and UDP) over a fixed window while k trees
// exist. New trees only add JOIN routing and per-tree keep-alives on top of the shared
// overlay maintenance, so traffic grows sub-linearly — the paper reports 1.19x (TCP) and
// 1.29x (UDP) when trees go 1 -> 10x. The hub-and-spoke baseline pays per-app
// per-client connection maintenance through one server, so its server-side traffic
// scales linearly with tree count.
#include "bench/bench_util.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"

namespace totoro {
namespace {

struct TrafficResult {
  double tcp_bytes_per_node = 0.0;
  double udp_bytes_per_node = 0.0;
};

TrafficResult MeasureTotoro(int num_trees, double window_ms) {
  PastryConfig pastry_config;
  pastry_config.enable_keepalive = true;
  pastry_config.keepalive_interval_ms = 500.0;
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 500.0;
  // The engine honors TOTORO_SIM_SHARDS; CI gates K=4 against the K=1 baseline.
  bench::Stack stack(300, 70, pastry_config, scribe_config, /*model_bandwidth=*/false,
                     /*latency_lo=*/2.0, /*latency_hi=*/40.0, MakeSimulatorFromEnv());
  for (size_t i = 0; i < stack.pastry->size(); ++i) {
    stack.pastry->node(i).StartKeepAlive();
  }
  stack.forest->StartMaintenance();
  // Warm up the overlay keep-alives, then measure a fixed-length window that contains
  // both tree creation (TCP JOINs) and steady-state maintenance (UDP keep-alives).
  stack.sim.RunFor(1000.0);
  stack.net->metrics().Reset();
  const double window_start = stack.sim.Now();
  Rng pick(71);
  for (int t = 0; t < num_trees; ++t) {
    const NodeId topic = stack.forest->CreateTopic("fig7-" + std::to_string(t));
    stack.forest->SubscribeAll(topic, stack.RandomNodes(40, pick), /*settle_ms=*/200.0);
  }
  stack.sim.RunUntil(window_start + window_ms);
  TrafficResult out;
  out.tcp_bytes_per_node = static_cast<double>(stack.net->metrics().TotalBytesTcp()) /
                           static_cast<double>(stack.pastry->size());
  out.udp_bytes_per_node = static_cast<double>(stack.net->metrics().TotalBytesUdp()) /
                           static_cast<double>(stack.pastry->size());
  return out;
}

// Hub-and-spoke baseline: every app keeps one control connection per participating
// client through the central server (keep-alive both ways each period).
double MeasureCentralServerBytes(int num_apps, double window_ms) {
  constexpr double kPeriodMs = 500.0;
  constexpr double kHeartbeatBytes = 48.0;
  constexpr int kClientsPerApp = 40;
  const double periods = window_ms / kPeriodMs;
  // Server sends + receives one heartbeat per client per app per period.
  return periods * kClientsPerApp * num_apps * kHeartbeatBytes * 2.0;
}

// --- Wire batching: bytes on the wire with and without envelope coalescing. ---
//
// Ten trees over the SAME 40 subscribers, so every (parent, child) pair carries one
// keep-alive per topic per tick over the same edge — the coalescable pattern. One
// coalescing run measures both sides: its wire bytes are the batched figure, and wire
// bytes plus pubsub.batch.bytes_saved are what the same sends cost framed one by one
// (see src/pubsub/wire_batcher.h), so the delta is purely envelope savings.

struct BatchingResult {
  uint64_t wire_bytes = 0;    // Bytes in the steady-state measurement window.
  uint64_t bytes_saved = 0;   // pubsub.batch.bytes_saved over the window.
  uint64_t envelopes = 0;
};

uint64_t BatchCounterValue(const char* name) {
  const Counter* c = GlobalMetrics().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

BatchingResult MeasureBatching(double window_ms) {
  ScribeConfig scribe_config;
  scribe_config.enable_tree_repair = true;
  scribe_config.parent_heartbeat_ms = 500.0;
  scribe_config.coalesce_sends = true;  // Same-tick sends coalesce; timings unchanged.
  bench::Stack stack(300, 72, PastryConfig{}, scribe_config, /*model_bandwidth=*/false,
                     /*latency_lo=*/2.0, /*latency_hi=*/40.0, MakeSimulatorFromEnv());
  stack.forest->StartMaintenance();
  Rng pick(73);
  const auto members = stack.RandomNodes(40, pick);
  for (int t = 0; t < 10; ++t) {
    const NodeId topic = stack.forest->CreateTopic("fig7-batch-" + std::to_string(t));
    stack.forest->SubscribeAll(topic, members, /*settle_ms=*/200.0);
  }
  // Steady state: only maintenance keep-alives remain.
  stack.net->metrics().Reset();
  const uint64_t saved_before = BatchCounterValue("pubsub.batch.bytes_saved");
  const uint64_t envelopes_before = BatchCounterValue("pubsub.batch.envelopes");
  const double window_start = stack.sim.Now();
  stack.sim.RunUntil(window_start + window_ms);
  BatchingResult out;
  out.wire_bytes = stack.net->metrics().total_bytes();
  out.bytes_saved = BatchCounterValue("pubsub.batch.bytes_saved") - saved_before;
  out.envelopes = BatchCounterValue("pubsub.batch.envelopes") - envelopes_before;
  return out;
}

}  // namespace
}  // namespace totoro

int main() {
  using totoro::AsciiTable;
  totoro::bench::PrintHeader("Fig 7: per-node maintenance traffic vs #dataflow trees");
  constexpr double kWindowMs = 10000.0;
  AsciiTable table({"#trees", "Totoro TCP B/node", "Totoro UDP B/node",
                    "central server B (hub-and-spoke)"});
  double tcp1 = 0.0;
  double udp1 = 0.0;
  double tcp10 = 0.0;
  double udp10 = 0.0;
  for (int trees : {1, 2, 5, 10}) {
    const auto result = totoro::MeasureTotoro(trees, kWindowMs);
    if (trees == 1) {
      tcp1 = result.tcp_bytes_per_node;
      udp1 = result.udp_bytes_per_node;
    }
    if (trees == 10) {
      tcp10 = result.tcp_bytes_per_node;
      udp10 = result.udp_bytes_per_node;
    }
    table.AddRow({AsciiTable::Int(trees), AsciiTable::Num(result.tcp_bytes_per_node, 0),
                  AsciiTable::Num(result.udp_bytes_per_node, 0),
                  AsciiTable::Num(totoro::MeasureCentralServerBytes(trees, kWindowMs), 0)});
  }
  const std::string rendered = table.Render();
  std::printf("%s", rendered.c_str());
  std::printf("10x trees => Totoro TCP x%.2f, UDP x%.2f (paper: 1.19x TCP, 1.29x UDP);\n"
              "hub-and-spoke server traffic scales 10x\n",
              tcp10 / tcp1, udp10 / udp1);
  constexpr double kBatchWindowMs = 10000.0;
  const auto batched = totoro::MeasureBatching(kBatchWindowMs);
  const uint64_t unbatched_bytes = batched.wire_bytes + batched.bytes_saved;
  const double drop_pct = 100.0 * static_cast<double>(batched.bytes_saved) /
                          static_cast<double>(unbatched_bytes);
  std::printf("\nwire batching, 10 trees x same 40 subscribers, steady-state %.0fs window:\n"
              "  unbatched (per-msg framing): %llu B\n"
              "  batched   (envelopes):       %llu B  (%llu envelopes, -%.1f%%)\n",
              kBatchWindowMs / 1000.0,
              static_cast<unsigned long long>(unbatched_bytes),
              static_cast<unsigned long long>(batched.wire_bytes),
              static_cast<unsigned long long>(batched.envelopes), drop_pct);

  totoro::BenchReport report = totoro::bench::MakeReport("fig7_traffic", 70, "default");
  // Traffic is virtual-time-driven and deterministic; ratios compare exactly.
  report.SetMetric("fig7_tcp_growth_10x", tcp10 / tcp1, "ratio", 0.0);
  report.SetMetric("fig7_udp_growth_10x", udp10 / udp1, "ratio", 0.0);
  report.SetMetric("fig7_tcp_bytes_per_node_10trees", tcp10, "bytes", 0.0);
  report.SetMetric("fig7_batch_unbatched_bytes", static_cast<double>(unbatched_bytes),
                   "bytes", 0.0);
  report.SetMetric("fig7_batch_batched_bytes",
                   static_cast<double>(batched.wire_bytes), "bytes", 0.0);
  report.SetMetric("fig7_batch_bytes_drop_pct", drop_pct, "pct", 0.0);
  report.SetFingerprint("fig7_table", totoro::FingerprintBytes(rendered));
  return report.Write() ? 0 : 1;
}
