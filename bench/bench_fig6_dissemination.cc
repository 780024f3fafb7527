// Reproduces Figure 6: model dissemination and gradient aggregation scale as O(log N).
//
//   6a  Model dissemination time for one tree, N = 20..5120 (x2 steps).
//   6b  Gradient aggregation time over the same sweep.
//   6c  Dissemination time for tree fanouts 8, 16, 32 (DHT base b = 3, 4, 5).
//
// When N grows exponentially, both times must grow only linearly (tree depth).
#include "bench/bench_util.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"

namespace totoro {
namespace {

struct Timing {
  double dissemination_ms = 0.0;
  double aggregation_ms = 0.0;
  int depth = 0;
};

Timing MeasureTree(size_t n, int bits_per_digit, uint64_t seed, double latency_lo = 2.0,
                   double latency_hi = 40.0) {
  PastryConfig pastry_config;
  pastry_config.bits_per_digit = bits_per_digit;
  // Hop-latency regime: no bandwidth modelling, so times reflect path lengths. The
  // engine honors TOTORO_SIM_SHARDS; CI gates K=4 against the K=1 baseline.
  bench::Stack stack(n, seed, pastry_config, ScribeConfig{}, /*model_bandwidth=*/false,
                     latency_lo, latency_hi, MakeSimulatorFromEnv());
  const NodeId topic = stack.forest->CreateTopic("fig6");
  stack.forest->SubscribeAll(topic, stack.AllNodes());
  const auto stats = stack.forest->ComputeStats(topic);

  Timing timing;
  timing.depth = stats.depth;
  const size_t root = stack.forest->RootOf(topic);

  // 6a: dissemination = last subscriber delivery - root send, read from the shared
  // latency histogram every subscriber delivery feeds (max over one broadcast).
  Histogram& dissemination = GlobalMetrics().GetHistogram(
      "pubsub.broadcast.latency_ms", Histogram::DefaultLatencyBoundsMs());
  dissemination.Reset();
  stack.forest->scribe(root).Broadcast(topic, 1, std::make_shared<int>(0), 100000);
  stack.sim.Run();
  CHECK_EQ(dissemination.count(), stack.forest->size());
  timing.dissemination_ms = dissemination.max();

  // 6b: aggregation = all leaves submit at t0; time until the root total lands. The
  // root observes exactly one end-to-end latency into the aggregation histogram.
  Histogram& aggregation = GlobalMetrics().GetHistogram(
      "pubsub.aggregate.latency_ms", Histogram::DefaultLatencyBoundsMs());
  aggregation.Reset();
  bool root_done = false;
  stack.forest->SetOnRootAggregate(
      [&](const NodeId&, uint64_t, const AggregationPiece& total) {
        CHECK_EQ(total.count, stack.forest->size());
        root_done = true;
      });
  for (size_t i = 0; i < stack.forest->size(); ++i) {
    AggregationPiece piece;
    stack.forest->scribe(i).SubmitUpdate(topic, 2, std::move(piece), 100000);
  }
  stack.sim.Run();
  CHECK(root_done);
  CHECK_EQ(aggregation.count(), 1u);
  timing.aggregation_ms = aggregation.max();
  return timing;
}

}  // namespace
}  // namespace totoro

int main() {
  using totoro::AsciiTable;
  totoro::BenchReport report = totoro::bench::MakeReport("fig6_dissemination", 600, "default");
  totoro::bench::PrintHeader("Fig 6a/6b: dissemination & aggregation time vs N (fanout 16)");
  AsciiTable table({"N", "tree depth", "dissemination (ms)", "aggregation (ms)"});
  for (size_t n = 20; n <= 5120; n *= 2) {
    const auto timing = totoro::MeasureTree(n, /*bits_per_digit=*/4, /*seed=*/600 + n);
    table.AddRow({AsciiTable::Int(static_cast<long>(n)), AsciiTable::Int(timing.depth),
                  AsciiTable::Num(timing.dissemination_ms, 1),
                  AsciiTable::Num(timing.aggregation_ms, 1)});
    if (n == 5120) {
      // Virtual-time results: machine-independent, compare exactly.
      report.SetMetric("fig6a_dissemination_ms_n5120", timing.dissemination_ms, "ms", 0.0);
      report.SetMetric("fig6b_aggregation_ms_n5120", timing.aggregation_ms, "ms", 0.0);
    }
  }
  const std::string rendered_ab = table.Render();
  std::printf("%s", rendered_ab.c_str());
  report.SetFingerprint("fig6ab_table", totoro::FingerprintBytes(rendered_ab));
  std::printf("N grows exponentially; times grow ~linearly (depth-bounded) => O(log N)\n");

  totoro::bench::PrintHeader("Fig 6c: dissemination time vs tree fanout (N = 2560)");
  AsciiTable fanout_table({"fanout (2^b)", "tree depth", "dissemination (ms)"});
  for (int b : {3, 4, 5}) {
    // Constant 20 ms links isolate the depth effect from latency variance.
    const auto timing = totoro::MeasureTree(2560, b, /*seed=*/700 + b, 20.0, 20.0);
    fanout_table.AddRow({AsciiTable::Int(1 << b), AsciiTable::Int(timing.depth),
                         AsciiTable::Num(timing.dissemination_ms, 1)});
  }
  const std::string rendered_c = fanout_table.Render();
  std::printf("%s", rendered_c.c_str());
  report.SetFingerprint("fig6c_table", totoro::FingerprintBytes(rendered_c));
  std::printf("larger fanout => shallower tree => faster dissemination\n");
  return report.Write() ? 0 : 1;
}
