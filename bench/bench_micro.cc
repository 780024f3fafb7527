// Google-benchmark micro benchmarks of the hot primitives: simulator event-queue
// operations, overlay routing decisions, a keep-alive round trip, SHA-1 id derivation,
// KL-UCB index computation, MLP training steps, FedAvg merging.
#include <benchmark/benchmark.h>

#include <array>

#include "bench/bench_util.h"
#include "src/bandit/kl_ucb.h"
#include "src/dht/pastry_network.h"
#include "src/fl/aggregation.h"
#include "src/ml/quantized.h"
#include "src/ml/serialize.h"
#include "src/sim/event_queue.h"
#include "src/sim/latency_model.h"

namespace totoro {
namespace {

// Schedule/fire churn at a fixed pending depth: the steady-state cost of one event
// through the slab + 4-ary heap, with captures representative of delivery closures.
void BM_Schedule(benchmark::State& state) {
  EventQueue q;
  q.Reserve(1024);
  SimTime t = 0.0;
  uint64_t key = 0;
  uint64_t sink = 0;
  // Keep 512 events pending so sift paths see a realistic tree depth.
  for (int i = 0; i < 512; ++i) {
    q.Push(t + static_cast<SimTime>(i % 97), ++key, 0, [&sink]() { ++sink; });
  }
  SimTime at = 0.0;
  for (auto _ : state) {
    t += 1.0;
    char payload[48] = {};
    payload[0] = static_cast<char>(t);
    q.Push(t + static_cast<SimTime>(static_cast<int>(t) % 97), ++key, 0,
           [&sink, payload]() { sink += 1 + 0 * static_cast<uint64_t>(payload[0]); });
    q.PopAndRun(&at);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Schedule);

// Schedule + cancel + skip: the timeout pattern (most timeouts are cancelled before
// firing). Measures handle resolution and lazy heap skipping.
void BM_CancelChurn(benchmark::State& state) {
  EventQueue q;
  q.Reserve(64);
  SimTime t = 0.0;
  uint64_t key = 0;
  uint64_t fired = 0;
  SimTime at = 0.0;
  for (auto _ : state) {
    t += 1.0;
    EventHandle timeout = q.Push(t + 100.0, ++key, 0, [&fired]() { ++fired; });
    q.Push(t, ++key, 0, [&fired]() { ++fired; });
    benchmark::DoNotOptimize(timeout.Cancel());
    q.PopAndRun(&at);  // Runs the live event; the dead one is skipped when surfaced.
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_CancelChurn);

// Pop of a moved-out callback holding a move-only capture — regression guard for the
// move-not-copy PopNext contract (a copying queue would not compile this, and a
// shared_ptr workaround would show up as time here).
void BM_PopNextMove(benchmark::State& state) {
  EventQueue q;
  q.Reserve(16);
  SimTime at = 0.0;
  uint32_t exec_host = 0;
  uint64_t key = 0;
  uint64_t sink = 0;
  auto buffer = std::make_unique<uint64_t[]>(8);
  for (auto _ : state) {
    q.Push(1.0, ++key, 0, [&sink, p = buffer.get()]() { sink += p[0]; });
    EventFn fn;
    benchmark::DoNotOptimize(q.PopNext(&at, &exec_host, &fn));
    fn();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_PopNextMove);

// Pop plus push at 32k pending events with arrival-sized (72-byte) captures: the queue
// depth of fl_churn's keep-alive tick burst, where every node's tick fires at the same
// instant. Times are random, so each pop reads a slot far from the last one.
void BM_PopDeepQueue(benchmark::State& state) {
  constexpr int kDepth = 32768;
  EventQueue q;
  q.Reserve(kDepth + 1);
  Rng rng(82);
  uint64_t key = 0;
  uint64_t sink = 0;
  const auto arrival = [&sink](uint64_t tag) {
    std::array<uint64_t, 8> message{};  // As large as a Message.
    message[0] = tag;
    return [&sink, message]() { sink += message[0]; };
  };
  static_assert(sizeof(arrival(0)) == EventFn::kInlineSize);
  for (int i = 0; i < kDepth; ++i) {
    ++key;
    q.Post(rng.Uniform(0.0, 40.0), key, 0, arrival(key));
  }
  SimTime at = 0.0;
  uint32_t exec_host = 0;
  for (auto _ : state) {
    EventFn fn;
    q.PopNext(&at, &exec_host, &fn);
    fn();
    ++key;
    q.Post(at + rng.Uniform(2.0, 40.0), key, 0, arrival(key));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PopDeepQueue);

// One keep-alive round trip through a Simulator: node 0 heartbeats node 1, which learns
// node 0 and acks, and node 0 learns node 1 from the ack. Both nodes hold keep-alive
// state, as on fl_churn; the warm-up beats allocate it without starting their ticks.
void BM_HeartbeatRoundTrip(benchmark::State& state) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(5.0));
  PastryConfig config;
  config.enable_keepalive = true;
  PastryNetwork pastry(&net, config);
  Rng rng(81);
  for (int i = 0; i < 64; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  PastryNode& a = pastry.node(0);
  PastryNode& b = pastry.node(1);
  const auto beat_from = [](const PastryNode& from) {
    Message m;
    m.type = kDhtHeartbeat;
    m.size_bytes = 16;
    m.traffic = TrafficClass::kDhtMaintenance;
    m.SetPayload(RouteEntry{from.id(), from.host()});
    return m;
  };
  const Message beat = beat_from(a);
  b.SendDirect(a.host(), beat_from(b));
  a.SendDirect(b.host(), beat);
  sim.Run();
  for (auto _ : state) {
    a.SendDirect(b.host(), beat);
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HeartbeatRoundTrip);

// Run() on an empty queue: the idle-check fast path engines hit between rounds.
void BM_EmptyRun(benchmark::State& state) {
  Simulator sim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Run());
  }
}
BENCHMARK(BM_EmptyRun);

void BM_Sha1AppId(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeAppId("application-name", "creator-key",
                                       std::to_string(i++)));
  }
}
BENCHMARK(BM_Sha1AppId);

void BM_RoutingNextHop(benchmark::State& state) {
  static bench::Stack* stack = new bench::Stack(10000, 77, PastryConfig{}, ScribeConfig{},
                                                /*model_bandwidth=*/false);
  Rng rng(78);
  for (auto _ : state) {
    const NodeId key = RandomNodeId(rng);
    const size_t origin = rng.NextBelow(stack->pastry->size());
    benchmark::DoNotOptimize(stack->pastry->node(origin).ComputeNextHop(key));
  }
}
BENCHMARK(BM_RoutingNextHop);

void BM_FullRoute10k(benchmark::State& state) {
  static bench::Stack* stack = new bench::Stack(10000, 79, PastryConfig{}, ScribeConfig{},
                                                /*model_bandwidth=*/false);
  static bool wired = false;
  if (!wired) {
    for (size_t i = 0; i < stack->pastry->size(); ++i) {
      stack->pastry->node(i).SetDeliverHandler(950,
                                               [](const NodeId&, const Message&, int) {});
    }
    wired = true;
  }
  Rng rng(80);
  for (auto _ : state) {
    Message m;
    m.type = 950;
    stack->pastry->node(rng.NextBelow(stack->pastry->size()))
        .Route(RandomNodeId(rng), std::move(m));
    stack->sim.Run();
  }
}
BENCHMARK(BM_FullRoute10k);

void BM_KlUcbIndex(benchmark::State& state) {
  double theta = 0.0;
  for (auto _ : state) {
    theta = theta >= 0.97 ? 0.01 : theta + 0.013;
    benchmark::DoNotOptimize(KlUcbLinkCost(theta, 137, 5000.0));
  }
}
BENCHMARK(BM_KlUcbIndex);

void BM_MlpTrainStep(benchmark::State& state) {
  SyntheticTask task(SyntheticTask::SpeechCommandsLike(1));
  Rng rng(2);
  Dataset shard = task.Generate(200, rng);
  auto model = MakeResNet34Proxy(64, 35, 3);
  TrainConfig config;
  config.local_steps = 1;
  config.batch_size = 20;
  Rng train_rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->TrainLocal(shard, config, train_rng));
  }
  state.SetItemsProcessed(state.iterations() * config.batch_size);
}
BENCHMARK(BM_MlpTrainStep);

// One minibatch SGD step on a FEMNIST-scale model (128 -> 512 -> 62): long weight
// rows, so the kernel dispatch (KAxpy forward/backward, the MulMatT restructure, the
// scratch-reuse path) dominates over the per-step softmax/sampling overhead. This is
// the model-math headline metric the committed baseline gates.
void BM_SgdStep(benchmark::State& state) {
  SyntheticSpec spec = SyntheticTask::FemnistLike(1);
  spec.dim = 128;
  SyntheticTask task(spec);
  Rng rng(2);
  Dataset shard = task.Generate(200, rng);
  auto model = MakeMlp("sgd-femnist-512", 128, 512, 62, 3);
  TrainConfig config;
  config.local_steps = 1;
  config.batch_size = 20;
  Rng train_rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->TrainLocal(shard, config, train_rng));
  }
  state.SetItemsProcessed(state.iterations() * config.batch_size);
}
BENCHMARK(BM_SgdStep);

// Float inference over a 256-example Speech-like batch through the SIMD kernels
// (KAxpy hidden/output stages + KSoftmax) — the serving-side half of the model math.
void BM_PredictFloat(benchmark::State& state) {
  SyntheticTask task(SyntheticTask::SpeechCommandsLike(1));
  Rng rng(7);
  const Dataset batch = task.Generate(256, rng);
  auto model = MakeResNet34Proxy(64, 35, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Accuracy(batch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_PredictFloat);

// Same batch through the dequantize-free int8 path: per-row scales folded into the
// KAxpyI8 alpha, weights consumed directly from the EncodeInt8 wire blob.
void BM_PredictInt8(benchmark::State& state) {
  SyntheticTask task(SyntheticTask::SpeechCommandsLike(1));
  Rng rng(7);
  const Dataset batch = task.Generate(256, rng);
  auto model = MakeResNet34Proxy(64, 35, 8);
  const QuantizedMlp quantized = QuantizedMlp::FromInt8Blob(
      EncodeInt8(model->GetWeights()), QuantizedMlp::Layout{64, 256, 35});
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantized.Accuracy(batch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_PredictInt8);

void BM_FedAvgMerge(benchmark::State& state) {
  const size_t dim = 25000;
  std::vector<WeightedUpdate> updates(16);
  Rng rng(5);
  for (auto& u : updates) {
    u.weights.resize(dim);
    for (auto& w : u.weights) {
      w = static_cast<float>(rng.Gaussian());
    }
    u.sample_weight = 1.0 + rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FederatedAverage(updates));
  }
}
BENCHMARK(BM_FedAvgMerge);

void BM_SerializeInt8(benchmark::State& state) {
  std::vector<float> weights(25000);
  Rng rng(6);
  for (auto& w : weights) {
    w = static_cast<float>(rng.Gaussian());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeInt8(weights));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(weights.size() * 4));
}
BENCHMARK(BM_SerializeInt8);

// Console output plus BenchReport capture: every benchmark's adjusted real time lands
// in BENCH_micro.json as `<name>_ns` so benchdiff can gate regressions (0.75 relative
// tolerance — micro timings are noisy across machines; a 2x slowdown still fails).
// With --benchmark_repetitions > 1 the recorded time is the median of the repetitions,
// which one slow repetition cannot move; otherwise it is the single run's.
class ReportingConsoleReporter : public benchmark::ConsoleReporter {
 public:
  explicit ReportingConsoleReporter(BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const bool recorded =
          run.repetitions > 1
              ? run.run_type == Run::RT_Aggregate && run.aggregate_name == "median"
              : run.run_type == Run::RT_Iteration;
      if (recorded) {
        report_->SetMetric(run.run_name.str() + "_ns", run.GetAdjustedRealTime(), "ns", 0.75);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchReport* report_;
};

}  // namespace
}  // namespace totoro

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  totoro::BenchReport report("micro");
  report.SetMeta("workload", "default");
  totoro::ReportingConsoleReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!report.Write()) {
    return 1;
  }
  return 0;
}
