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
// to stderr so stdout stays comparable between runs. The walls come from the profiler
// tree, which this bench turns on whatever TOTORO_PROFILE says; the whole run is one
// `scale_smoke` phase, and stderr also shows the wall none of its phases claims.
//
// Usage: bench_scale_smoke [nodes] [routes]   (defaults: 100000 nodes, 20000 routes)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/obs/export.h"
#include "src/obs/profiler.h"
#include "src/sim/simulator.h"

namespace totoro {
namespace {

int Run(size_t nodes, size_t routes) {
  Profiler& profiler = GlobalProfiler();
  profiler.SetEnabled(true);
  std::optional<ProfileScope> whole_run;  // Closed after teardown, before the readout.
  whole_run.emplace("scale_smoke");
  std::unique_ptr<Simulator> sim = MakeSimulatorFromEnv();
  const size_t shards = sim->num_shards();
  std::printf("building %zu-node overlay (oracle construction, %zu shard%s)...\n", nodes,
              shards, shards == 1 ? "" : "s");
  auto owned_stack = std::make_unique<bench::Stack>(
      nodes, 20240807, PastryConfig{}, ScribeConfig{}, /*model_bandwidth=*/false,
      /*latency_lo=*/2.0, /*latency_hi=*/40.0, std::move(sim));
  bench::Stack& stack = *owned_stack;
  stack.sim.ReserveEvents(1 << 16);

  // Deliveries land on whichever shard owns the target host; relaxed atomics keep the
  // sums exact — and deterministic, since addition commutes — at every K.
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> total_hops{0};
  {
    ProfileScope profile_scope("handlers");
    for (size_t i = 0; i < stack.pastry->size(); ++i) {
      stack.pastry->node(i).SetDeliverHandler(
          1200, [&delivered, &total_hops](const NodeId&, const Message&, int hops) {
            delivered.fetch_add(1, std::memory_order_relaxed);
            total_hops.fetch_add(static_cast<uint64_t>(hops), std::memory_order_relaxed);
          });
    }
  }

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
  stack.sim.Run();

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
  const double rss_bytes = stack.overlay_rss_bytes;
  const Simulator::BarrierStats barrier = stack.sim.barrier_stats();
  const uint64_t events_fired = stack.sim.events_fired();
  {
    ProfileScope profile_scope("teardown");
    owned_stack.reset();
  }
  whole_run.reset();
  // Phase walls on a shared box swing like events_per_sec, hence the same budget; the
  // resident-set growth moves only with the allocator and the per-node layout.
  const double whole_s = profiler.Find("scale_smoke")->stats.wall_seconds;
  double rest_s = whole_s;
  const std::pair<const char*, const char*> walls[] = {
      {"phase_add_nodes_s", "add_nodes"}, {"phase_oracle_s", "oracle_build"},
      {"phase_forest_s", "forest_build"}, {"phase_handlers_s", "handlers"},
      {"phase_event_loop_s", "sim_run"},  {"phase_teardown_s", "teardown"}};
  for (const auto& [name, phase] : walls) {
    const Profiler::PhaseNode* node = profiler.Find(std::string("scale_smoke.") + phase);
    CHECK(node != nullptr);
    rest_s -= node->stats.wall_seconds;
    std::fprintf(stderr, "%-20s%.3f s\n", name, node->stats.wall_seconds);
    report.SetMetric(name, node->stats.wall_seconds, "s", 1.5);
  }
  std::fprintf(stderr, "%-20s%.3f s, %.3f s (%.1f%%) in no phase\n", "scale_smoke", whole_s,
               rest_s, 100.0 * rest_s / whole_s);
  const double rss_per_node = rss_bytes / static_cast<double>(nodes);
  std::fprintf(stderr, "overlay VmRSS growth: %.0f B/node\n", rss_per_node);
  // The K>1 barrier's costs depend on K, so they are printed here and never reported.
  if (shards > 1) {
    std::fprintf(stderr,
                 "barrier: %llu windows, %.1f events/window/shard, %llu cross-shard "
                 "messages, %llu parks\n",
                 static_cast<unsigned long long>(barrier.windows),
                 static_cast<double>(events_fired) /
                     static_cast<double>(barrier.windows * shards),
                 static_cast<unsigned long long>(barrier.cross_shard_messages),
                 static_cast<unsigned long long>(barrier.parks));
    std::fprintf(stderr, "barrier: serial %.3f s, worker busy %.3f s, worker wait %.3f s\n",
                 barrier.serial_s, barrier.worker_busy_s, barrier.worker_wait_s);
  }
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
