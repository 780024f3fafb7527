// Shared scaffolding for bench binaries: overlay construction and app-launch helpers.
//
// Every bench binary reproduces one table or figure of the paper and prints its rows as
// an ASCII table; EXPERIMENTS.md records paper-vs-measured values. Alongside the table
// each binary fills a BenchReport (src/obs/bench_report.h) and calls Write(), emitting
// BENCH_<name>.json for tools/benchdiff — totoro_lint rule R5 enforces that no bench
// stays ASCII-only.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/parallel_runner.h"
#include "src/baselines/central_engine.h"
#include "src/common/table.h"
#include "src/core/engine.h"
#include "src/core/eua_topology.h"
#include "src/obs/bench_report.h"
#include "src/pubsub/forest.h"

namespace totoro {
namespace bench {

// A complete Totoro stack on a uniform-latency WAN.
//
// The engine defaults to Simulator() — one shard, run inline on the calling thread;
// pass `custom_sim` (e.g. MakeSimulatorFromEnv(), which honors TOTORO_SIM_SHARDS) to
// run the same stack on K shards. The constructor wires the conservative-barrier
// lookahead from the latency model unconditionally; only K > 1 uses it.
struct Stack {
  std::unique_ptr<Simulator> sim_owner;
  Simulator& sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;
  std::unique_ptr<Forest> forest;
  Rng rng;

  Stack(size_t nodes, uint64_t seed, PastryConfig pastry_config = {},
        ScribeConfig scribe_config = {}, bool model_bandwidth = true,
        double latency_lo = 2.0, double latency_hi = 40.0,
        std::unique_ptr<Simulator> custom_sim = nullptr)
      : sim_owner(custom_sim != nullptr ? std::move(custom_sim)
                                        : std::make_unique<Simulator>()),
        sim(*sim_owner),
        rng(seed) {
    NetworkConfig net_config;
    net_config.model_bandwidth = model_bandwidth;
    net = std::make_unique<Network>(
        &sim, std::make_unique<PairwiseUniformLatency>(latency_lo, latency_hi, seed ^ 0xFEED),
        net_config);
    sim.SetLookaheadMs(net->latency_model().MinLatencyMs());
    pastry = std::make_unique<PastryNetwork>(net.get(), pastry_config);
    pastry->Reserve(nodes);
    for (size_t i = 0; i < nodes; ++i) {
      pastry->AddRandomNode(rng);
    }
    pastry->BuildOracle(rng);
    forest = std::make_unique<Forest>(pastry.get(), scribe_config);
  }

  std::vector<size_t> AllNodes() const {
    std::vector<size_t> out(pastry->size());
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = i;
    }
    return out;
  }

  std::vector<size_t> RandomNodes(size_t count, Rng& pick) {
    std::vector<size_t> all = AllNodes();
    pick.Shuffle(all);
    all.resize(count);
    return all;
  }
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// Starts this bench's report with the standard metadata every BENCH_*.json carries.
// `workload` names the parameterization (node/route counts, figure variant): benchdiff
// skips comparison when it differs, so dev runs with other arguments never false-fail
// against the committed baseline.
inline BenchReport MakeReport(const std::string& name, uint64_t seed,
                              const std::string& workload) {
  BenchReport report(name);
  report.SetMeta("seed", std::to_string(seed));
  report.SetMeta("bench_threads", std::to_string(DefaultBenchThreads()));
  report.SetMeta("workload", workload);
  return report;
}

}  // namespace bench
}  // namespace totoro

#endif  // BENCH_BENCH_UTIL_H_
