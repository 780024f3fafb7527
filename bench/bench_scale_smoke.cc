// Scale smoke: builds a large Pastry overlay (default 100k nodes — the paper's edge
// deployments target this order), drives random lookups through it, and reports
// events-per-second plus routing statistics. This is the engine-scalability check:
// it passes when the overlay builds, every lookup resolves, and the hop count stays
// at the O(log_{2^b} N) bound; the printed throughput is the number EXPERIMENTS.md
// tracks for the simulator hot path at scale.
//
// Engine selection: TOTORO_SIM_SHARDS=1 (default) runs one shard inline on the main
// thread; K > 1 runs the identical workload on K shards behind the conservative barrier.
// Routes launch in staggered groups so thousands of lookups are in flight at once —
// that in-flight concurrency is what the sharded engine spreads across workers — and
// the route_stats fingerprint (delivered / hops / events) is the same for every K,
// so CI gates the K=1 and K=4 runs against the SAME committed baseline.
//
// Alongside the throughput it reports each phase's wall seconds (node add, BuildOracle,
// forest build, handler install, event loop, teardown) and the resident-set growth per
// node across the overlay build — metrics with tolerances, never fingerprints, printed
// to stderr so stdout stays comparable between runs.
//
// Usage: bench_scale_smoke [nodes] [routes]   (defaults: 100000 nodes, 20000 routes)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profiler.h"
#include "src/sim/simulator.h"

namespace totoro {
namespace {

int Run(size_t nodes, size_t routes) {
  std::unique_ptr<Simulator> sim = MakeSimulatorFromEnv();
  const size_t shards = sim->num_shards();
  std::printf("building %zu-node overlay (oracle construction, %zu shard%s)...\n", nodes,
              shards, shards == 1 ? "" : "s");
  auto owned_stack = std::make_unique<bench::Stack>(
      nodes, 20240807, PastryConfig{}, ScribeConfig{}, /*model_bandwidth=*/false,
      /*latency_lo=*/2.0, /*latency_hi=*/40.0, std::move(sim));
  bench::Stack& stack = *owned_stack;
  stack.sim.ReserveEvents(1 << 16);
  // Live throughput: update the events/sec gauge from inside the run (sliding window)
  // instead of only as a final average. This makes the gauge wall-clock dependent, so
  // the determinism fingerprint below hashes routing results, never the registry.
  // The sharded engine samples at its window barriers, so there the sample count is
  // window-granular; the event stream is the same either way.
  stack.sim.EnablePeriodicSampling(8192);
  // Per-host work hook for TOTORO_PROFILE runs: the periodic sampler drives this on
  // the same deterministic trigger as the queue-depth series, so the profile shows
  // how DHT work accumulates across the run.
  GlobalProfiler().AddSampler("net_dht_work_units", [&stack]() {
    return stack.net->metrics().TotalWork(WorkKind::kDhtTask);
  });

  // Deliveries land on whichever shard owns the target host; relaxed atomics keep the
  // sums exact — and deterministic, since addition commutes — at every K.
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> total_hops{0};
  const double handlers_start = bench::WallSeconds();
  for (size_t i = 0; i < stack.pastry->size(); ++i) {
    stack.pastry->node(i).SetDeliverHandler(
        1200, [&delivered, &total_hops](const NodeId&, const Message&, int hops) {
          delivered.fetch_add(1, std::memory_order_relaxed);
          total_hops.fetch_add(static_cast<uint64_t>(hops), std::memory_order_relaxed);
        });
  }
  const double handlers_s = bench::WallSeconds() - handlers_start;

  // Pre-plan every route (launch time, source, target) from the seeded Rng so the
  // schedule is one deterministic artifact shared by every engine and shard count.
  // Groups of 256 launch 5 virtual ms apart: with ~2-40ms hop latencies, several
  // groups' worth of lookups overlap in flight by mid-run.
  struct PlannedRoute {
    double at = 0.0;
    size_t src = 0;
    NodeId target;
  };
  Rng rng(20240808);
  std::vector<PlannedRoute> plan;
  plan.reserve(routes);
  for (size_t r = 0; r < routes; ++r) {
    PlannedRoute pr;
    pr.at = static_cast<double>(r / 256) * 5.0;
    pr.src = rng.NextBelow(stack.pastry->size());
    pr.target = RandomNodeId(rng);
    plan.push_back(pr);
  }
  for (const PlannedRoute& pr : plan) {
    stack.sim.ScheduleAt(pr.at, [&stack, pr]() {
      // Launch with the source as the scheduling identity so the lookup's hop chain
      // carries canonical per-host event keys under the sharded engine.
      stack.sim.RunAsHost(stack.pastry->node(pr.src).host(), [&stack, &pr] {
        Message m;
        m.type = 1200;
        stack.pastry->node(pr.src).Route(pr.target, std::move(m));
      });
    });
  }
  const double loop_start = bench::WallSeconds();
  stack.sim.Run();
  const double loop_s = bench::WallSeconds() - loop_start;

  const uint64_t delivered_total = delivered.load();
  const uint64_t hops_total = total_hops.load();
  const double mean_hops = delivered_total == 0 ? 0.0
                                                : static_cast<double>(hops_total) /
                                                      static_cast<double>(delivered_total);
  std::printf("routes issued:      %zu\n", routes);
  std::printf("routes delivered:   %llu\n",
              static_cast<unsigned long long>(delivered_total));
  std::printf("mean hops:          %.3f\n", mean_hops);
  std::printf("events fired:       %llu\n",
              static_cast<unsigned long long>(stack.sim.events_fired()));
  // The gauge still holds the periodic sampler's last window; show it before the
  // explicit publish overwrites it with the whole-run average.
  std::printf("sim.events_per_sec gauge (live window): %.0f\n",
              GlobalMetrics().GetGauge("sim.events_per_sec").value());
  stack.sim.PublishThroughputMetrics();
  std::printf("events/sec (wall):  %.0f\n", stack.sim.EventsPerSecond());

  // Machine-readable record for tools/benchdiff. The fingerprint covers the routing
  // outcome (deterministic for a given workload and ANY shard count); events/sec is
  // wall-clock and gets a wide tolerance.
  char probe[128];
  std::snprintf(probe, sizeof(probe), "delivered=%llu hops=%llu events=%llu",
                static_cast<unsigned long long>(delivered_total),
                static_cast<unsigned long long>(hops_total),
                static_cast<unsigned long long>(stack.sim.events_fired()));
  char workload[64];
  std::snprintf(workload, sizeof(workload), "nodes=%zu,routes=%zu", nodes, routes);
  BenchReport report = bench::MakeReport("scale_smoke", 20240807, workload);
  report.SetMeta("sim_shards", std::to_string(shards));
  report.SetMetric("routes_delivered", static_cast<double>(delivered_total), "routes",
                   0.0);
  report.SetMetric("mean_hops", mean_hops, "hops", 0.0);
  report.SetMetric("events_fired", static_cast<double>(stack.sim.events_fired()),
                   "events", 0.0);
  // 1.5 equivalent-slowdown budget: shared CI/dev machines show >50% throughput
  // swings from ambient load alone, so only a gross collapse (>2.5x) should gate.
  report.SetMetric("events_per_sec", stack.sim.EventsPerSecond(), "events/s", 1.5);
  report.SetFingerprint("route_stats", FingerprintBytes(probe));
  const bench::Stack::BuildPhases phases = stack.phases;
  GlobalProfiler().RemoveSampler("net_dht_work_units");
  const double teardown_start = bench::WallSeconds();
  owned_stack.reset();
  const double teardown_s = bench::WallSeconds() - teardown_start;
  // Phase walls on a shared box swing like events_per_sec, hence the same budget; the
  // resident-set growth moves only with the allocator and the per-node layout.
  const std::pair<const char*, double> walls[] = {
      {"phase_add_nodes_s", phases.add_nodes_s}, {"phase_oracle_s", phases.oracle_s},
      {"phase_forest_s", phases.forest_s},       {"phase_handlers_s", handlers_s},
      {"phase_event_loop_s", loop_s},            {"phase_teardown_s", teardown_s}};
  for (const auto& [name, seconds] : walls) {
    std::fprintf(stderr, "%-20s%.3f s\n", name, seconds);
    report.SetMetric(name, seconds, "s", 1.5);
  }
  const double rss_per_node = phases.overlay_rss_bytes / static_cast<double>(nodes);
  std::fprintf(stderr, "overlay VmRSS growth: %.0f B/node\n", rss_per_node);
  report.SetMetric("overlay_rss_bytes_per_node", rss_per_node, "B", 0.5);
  report.Write();

  if (delivered_total != routes) {
    std::printf("FAIL: %llu routes lost\n",
                static_cast<unsigned long long>(routes - delivered_total));
    return 1;
  }
  // Pastry's bound with the default 4-bit digits: ceil(log16 N) rows plus slack for
  // leaf-set termination. 100k nodes => ~4.2; anything near double that means routing
  // state degenerated.
  if (mean_hops > 8.0) {
    std::printf("FAIL: mean hops %.3f exceeds the O(log N) sanity bound\n", mean_hops);
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

}  // namespace
}  // namespace totoro

int main(int argc, char** argv) {
  const size_t nodes = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 100000;
  const size_t routes = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 20000;
  return totoro::Run(nodes, routes);
}
