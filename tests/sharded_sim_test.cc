// Unit tests for the simulator engine at any shard count: control-stream ordering,
// window/barrier semantics over a real Network, the engine contract (K=1 runs inline,
// late hosts, sends from driver code), and the headline guarantee — bit-identical
// metric and trace exports for any shard count K.
#include "src/sim/sharded_sim.h"

#include <gtest/gtest.h>

#include <sched.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/obs/export.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/sim/network.h"

namespace totoro {
namespace {

TEST(ShardedSimulator, ControlEventsRunInTimeOrder) {
  ShardedSimulator sim(2);
  sim.SetLookaheadMs(1.0);
  std::vector<int> order;
  sim.Schedule(5.0, [&order] { order.push_back(2); });
  sim.Schedule(1.0, [&order] { order.push_back(1); });
  sim.Schedule(9.0, [&order] { order.push_back(3); });
  EXPECT_EQ(sim.PendingEvents(), 3u);
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 9.0);
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.events_fired(), 3u);
}

TEST(ShardedSimulator, RunUntilIsInclusiveAndAdvancesClock) {
  ShardedSimulator sim(4);
  sim.SetLookaheadMs(0.5);
  int fired = 0;
  sim.ScheduleAt(10.0, [&fired] { ++fired; });
  sim.ScheduleAt(10.5, [&fired] { ++fired; });
  EXPECT_EQ(sim.RunUntil(10.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
  EXPECT_EQ(sim.RunUntil(20.0), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.Now(), 20.0);
}

TEST(ShardedSimulator, CancelledHostEventsDoNotFire) {
  ShardedSimulator sim(2);
  sim.SetLookaheadMs(1.0);

  class Silent : public Host {
   public:
    void HandleMessage(const Message&) override {}
  };
  Silent a;
  Silent b;
  Network net(&sim, std::make_unique<ConstantLatency>(1.0), NetworkConfig{});
  net.AddHost(&a);
  net.AddHost(&b);

  int fired = 0;
  EventHandle handle;
  sim.RunAsHost(1, [&] { handle = sim.Schedule(3.0, [&fired] { ++fired; }); });
  EXPECT_TRUE(handle.Cancel());
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_cancelled(), 1u);
}

// A host that replies to every ping until the hop budget runs out, so traffic bounces
// across shard boundaries many times.
class PingHost : public Host {
 public:
  Network* net = nullptr;
  HostId id = 0;
  int received = 0;

  void HandleMessage(const Message& msg) override {
    ++received;
    if (msg.hops < 6) {
      Message reply;
      reply.src = id;
      reply.dst = msg.src;
      reply.hops = static_cast<uint8_t>(msg.hops + 1);
      reply.size_bytes = 200;
      net->Send(reply);
    }
  }
};

struct ScenarioResult {
  std::vector<int> received;
  uint64_t events = 0;
  std::string metrics_json;
  std::string trace_json;
  Simulator::BarrierStats barrier;
};

// Runs the ping-pong scenario (16 hosts, all-to-all-ish pings, one mid-run churn event
// through the control stream) on a FRESH thread so every run gets pristine
// thread-local tracer/metrics sinks. With `driver_sends` the first pings go out from
// plain driver code, outside Run and RunAsHost, as TotoroEngine::StartAll's do. Each
// churn event first sleeps `control_wall` of wall time, which changes no result.
ScenarioResult RunPingScenario(size_t shards, bool model_bandwidth, bool driver_sends = false,
                               std::chrono::microseconds control_wall = {}) {
  ScenarioResult out;
  std::thread runner([&out, shards, model_bandwidth, driver_sends, control_wall] {
    GlobalTracer().SetEnabled(true);
    ShardedSimulator sim(shards);
    NetworkConfig cfg;
    cfg.model_bandwidth = model_bandwidth;
    Network net(&sim, std::make_unique<PairwiseUniformLatency>(2.0, 20.0, 1234), cfg);
    constexpr size_t kHosts = 16;
    std::vector<PingHost> hosts(kHosts);
    for (size_t i = 0; i < kHosts; ++i) {
      hosts[i].net = &net;
      hosts[i].id = net.AddHost(&hosts[i]);
    }
    sim.SetLookaheadMs(net.latency_model().MinLatencyMs());
    for (size_t i = 0; i < kHosts; ++i) {
      auto ping = [&net, i] {
        Message m;
        m.src = static_cast<HostId>(i);
        m.dst = static_cast<HostId>((i * 5 + 3) % kHosts);
        m.size_bytes = 120;
        net.Send(m);
      };
      if (driver_sends) {
        ping();
      } else {
        sim.RunAsHost(static_cast<HostId>(i), ping);
      }
    }
    // Mid-run churn through the control stream: host 3 dies, later heals. Control runs
    // at window boundaries with every worker waiting, so the flip is race-free and
    // lands at the same virtual instant for every K.
    sim.Schedule(60.0, [&net, control_wall] {
      std::this_thread::sleep_for(control_wall);
      net.SetHostUp(3, false);
    });
    sim.Schedule(180.0, [&net, control_wall] {
      std::this_thread::sleep_for(control_wall);
      net.SetHostUp(3, true);
    });
    sim.RunUntil(400.0);
    for (const PingHost& h : hosts) {
      out.received.push_back(h.received);
    }
    out.events = sim.events_fired();
    out.barrier = sim.barrier_stats();
    net.metrics().PublishTo(GlobalMetrics());
    out.metrics_json = MetricsToJson(GlobalMetrics());
    out.trace_json = TraceToChromeJson(GlobalTracer());
  });
  runner.join();
  return out;
}

TEST(ShardedSimulator, BitIdenticalExportsAcrossShardCounts) {
  const ScenarioResult base = RunPingScenario(1, /*model_bandwidth=*/true);
  EXPECT_GT(base.events, 0u);
  int delivered = 0;
  for (int r : base.received) {
    delivered += r;
  }
  EXPECT_GT(delivered, 16);  // Replies actually bounced.
  for (const size_t k : {size_t{2}, size_t{4}, size_t{8}}) {
    const ScenarioResult run = RunPingScenario(k, /*model_bandwidth=*/true);
    EXPECT_EQ(run.received, base.received) << "K=" << k;
    EXPECT_EQ(run.events, base.events) << "K=" << k;
    EXPECT_EQ(run.metrics_json, base.metrics_json) << "K=" << k;
    EXPECT_EQ(run.trace_json, base.trace_json) << "K=" << k;
  }
}

TEST(ShardedSimulator, BitIdenticalWithoutBandwidthModel) {
  const ScenarioResult base = RunPingScenario(1, /*model_bandwidth=*/false);
  const ScenarioResult run = RunPingScenario(4, /*model_bandwidth=*/false);
  EXPECT_EQ(run.received, base.received);
  EXPECT_EQ(run.events, base.events);
  EXPECT_EQ(run.metrics_json, base.metrics_json);
  EXPECT_EQ(run.trace_json, base.trace_json);
}

TEST(ShardedSimulator, DriverCodeSendsBitIdenticalAcrossShardCounts) {
  const ScenarioResult base =
      RunPingScenario(1, /*model_bandwidth=*/true, /*driver_sends=*/true);
  EXPECT_GT(base.events, 16u);
  for (const size_t k : {size_t{2}, size_t{4}}) {
    const ScenarioResult run =
        RunPingScenario(k, /*model_bandwidth=*/true, /*driver_sends=*/true);
    EXPECT_EQ(run.received, base.received) << "K=" << k;
    EXPECT_EQ(run.events, base.events) << "K=" << k;
    EXPECT_EQ(run.metrics_json, base.metrics_json) << "K=" << k;
    EXPECT_EQ(run.trace_json, base.trace_json) << "K=" << k;
  }
}

TEST(ShardedSimulator, ArrivalsWaitingInAnOutboxCountAsPending) {
  // Host 0 (shard 0) sends to host 1 (shard 1) at t=1; the run stops at t=1.5 with the
  // arrival still in shard 0's outbox, which the next window hands to shard 1.
  ShardedSimulator sim(2);
  Network net(&sim, std::make_unique<ConstantLatency>(2.0), NetworkConfig{});
  PingHost a;
  PingHost b;
  a.net = b.net = &net;
  a.id = net.AddHost(&a);
  b.id = net.AddHost(&b);
  sim.SetLookaheadMs(2.0);
  sim.RunAsHost(0, [&] {
    sim.Schedule(1.0, [&net] {
      Message m;
      m.src = 0;
      m.dst = 1;
      m.hops = 6;  // PingHost does not answer.
      net.Send(m);
    });
  });
  sim.RunUntil(1.5);
  EXPECT_EQ(sim.barrier_stats().cross_shard_messages, 1u);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_FALSE(sim.Idle());
  EXPECT_EQ(b.received, 0);
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_EQ(b.received, 1);
  EXPECT_TRUE(sim.Idle());
}

TEST(ShardedSimulator, OneCpuRunsMatchOneShard) {
  // Pinned to one CPU, every simulator thread shares it: nothing spins, each wait
  // parks, and the coordinator's shard 0 interleaves with the workers' windows.
  const ScenarioResult base = RunPingScenario(1, /*model_bandwidth=*/true);
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  int first = 0;
  while (!CPU_ISSET(first, &original)) {
    ++first;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  for (const size_t k : {size_t{2}, size_t{4}, size_t{8}}) {
    const ScenarioResult run = RunPingScenario(k, /*model_bandwidth=*/true);
    EXPECT_EQ(run.received, base.received) << "K=" << k;
    EXPECT_EQ(run.events, base.events) << "K=" << k;
    EXPECT_EQ(run.metrics_json, base.metrics_json) << "K=" << k;
    EXPECT_EQ(run.trace_json, base.trace_json) << "K=" << k;
    EXPECT_GE(run.barrier.parks, run.barrier.windows) << "K=" << k;
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
}

TEST(ShardedSimulator, WorkersParkedByLongControlEventsMatchOneShard) {
  // Each churn event holds the coordinator for 50 spin budgets, so the waiting worker
  // stops polling and parks mid-run, and the next window has to wake it.
  const auto wall = std::chrono::microseconds(static_cast<int64_t>(50e6 * Simulator::kSpinSeconds));
  const ScenarioResult base = RunPingScenario(1, /*model_bandwidth=*/true);
  const ScenarioResult run =
      RunPingScenario(2, /*model_bandwidth=*/true, /*driver_sends=*/false, wall);
  EXPECT_EQ(run.received, base.received);
  EXPECT_EQ(run.events, base.events);
  EXPECT_EQ(run.metrics_json, base.metrics_json);
  EXPECT_EQ(run.trace_json, base.trace_json);
  EXPECT_GE(run.barrier.parks, 2u) << "one park per long control event at least";
}

TEST(ShardedSimulator, BarrierStatsCountWindowsAndCrossShardPings) {
  // Every host pings every other host once from its own event at t=1, so each send
  // runs inside a window. K=2 puts hosts 0-7 on shard 0 and 8-15 on shard 1, so
  // 2 * 8 * 8 of the 16 * 15 pings cross shards.
  constexpr size_t kHosts = 16;
  for (const size_t k : {size_t{1}, size_t{2}}) {
    Simulator::BarrierStats stats;
    uint64_t events = 0;
    std::thread runner([&stats, &events, k] {
      Simulator sim(k);
      NetworkConfig cfg;
      cfg.model_bandwidth = false;  // One arrival event per ping, no NIC backlog.
      Network net(&sim, std::make_unique<ConstantLatency>(2.0), cfg);
      std::vector<PingHost> hosts(kHosts);
      for (PingHost& h : hosts) {
        h.net = &net;
        h.id = net.AddHost(&h);
      }
      sim.SetLookaheadMs(net.latency_model().MinLatencyMs());
      for (HostId src = 0; src < kHosts; ++src) {
        sim.RunAsHost(src, [&sim, &net, src] {
          sim.Schedule(1.0, [&net, src] {
            for (HostId dst = 0; dst < kHosts; ++dst) {
              if (dst != src) {
                Message m;
                m.src = src;
                m.dst = dst;
                m.hops = 6;  // PingHost does not answer.
                net.Send(m);
              }
            }
          });
        });
      }
      sim.Run();
      stats = sim.barrier_stats();
      events = sim.events_fired();
    });
    runner.join();
    EXPECT_EQ(events, kHosts + kHosts * (kHosts - 1)) << "K=" << k;
    if (k == 1) {
      EXPECT_EQ(stats.windows, 0u);
      EXPECT_EQ(stats.cross_shard_messages, 0u);
    } else {
      EXPECT_GE(stats.windows, 2u);
      EXPECT_EQ(stats.cross_shard_messages, 2u * 8u * 8u);
    }
  }
}

// The `Threads:` line of /proc/self/status: this process's live thread count.
int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

TEST(MakeSimulatorFromEnv, DefaultsToOneInlineShard) {
  // TOTORO_SIM_SHARDS is unset in the test environment.
  const int before = ProcessThreadCount();
  ASSERT_GT(before, 0);
  std::unique_ptr<Simulator> sim = MakeSimulatorFromEnv();
  EXPECT_EQ(sim->num_shards(), 1u);
  EXPECT_EQ(ProcessThreadCount(), before) << "K=1 must not start a worker thread";
}

TEST(Simulator, FourShardsStartThreeWorkers) {
  // The calling thread runs shard 0 itself.
  const int before = ProcessThreadCount();
  ASSERT_GT(before, 0);
  Simulator sim(4);
  EXPECT_EQ(ProcessThreadCount(), before + 3);
}

TEST(Simulator, OneShardRunsInlineWithoutThreads) {
  const int before = ProcessThreadCount();
  ASSERT_GT(before, 0);
  Simulator sim;
  EXPECT_EQ(ProcessThreadCount(), before);
  Network net(&sim, std::make_unique<ConstantLatency>(1.0), NetworkConfig{});
  std::vector<PingHost> hosts(4);
  for (PingHost& h : hosts) {
    h.net = &net;
    h.id = net.AddHost(&h);
  }
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  sim.RunAsHost(2, [&] {
    sim.Schedule(1.0, [&ran_on] { ran_on = std::this_thread::get_id(); });
    Message m;
    m.src = 2;
    m.dst = 3;
    net.Send(m);
  });
  EXPECT_GT(sim.Run(), 2u);
  EXPECT_EQ(ran_on, caller) << "host events must run on the calling thread";
  EXPECT_EQ(ProcessThreadCount(), before);
}

TEST(Simulator, OneShardAcceptsHostsAfterTheFirstRun) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(2.0), NetworkConfig{});
  std::vector<PingHost> hosts(8);
  for (size_t i = 0; i < 4; ++i) {
    hosts[i].net = &net;
    hosts[i].id = net.AddHost(&hosts[i]);
  }
  sim.RunFor(5.0);
  // Join four more mid-run, one from inside a host event (as a churn join does).
  for (size_t i = 4; i < 6; ++i) {
    hosts[i].net = &net;
    hosts[i].id = net.AddHost(&hosts[i]);
  }
  sim.RunAsHost(0, [&] {
    sim.Schedule(1.0, [&] {
      for (size_t i = 6; i < 8; ++i) {
        hosts[i].net = &net;
        hosts[i].id = net.AddHost(&hosts[i]);
      }
      Message m;
      m.src = 0;
      m.dst = 7;
      net.Send(m);
    });
  });
  sim.Run();
  EXPECT_EQ(net.num_hosts(), 8u);
  EXPECT_GE(hosts[7].received, 1) << "a host added mid-run must receive";
  EXPECT_GE(hosts[0].received, 1) << "and its reply must come back";
}

TEST(SimulatorDeathTest, RejectsMoreShardsThanTheMaximum) {
  // Fails in the constructor, before a single worker thread starts.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH({ Simulator sim(Simulator::kMaxShards + 1); },
               "257 shards exceed kMaxShards = 256");
}

TEST(SimulatorDeathTest, ShardKnobRejectsZeroNegativeAndJunk) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* bad : {"0", "-1", "abc"}) {
    ::setenv("TOTORO_SIM_SHARDS", bad, 1);
    EXPECT_DEATH(MakeSimulatorFromEnv(),
                 std::string("TOTORO_SIM_SHARDS=\"") + bad + "\" is not an integer >= 1")
        << bad;
  }
  ::setenv("TOTORO_SIM_SHARDS", "100000", 1);
  EXPECT_DEATH(MakeSimulatorFromEnv(), "100000 shards exceed kMaxShards");
  ::unsetenv("TOTORO_SIM_SHARDS");
}

TEST(SimulatorDeathTest, ManyShardsRejectHostsAfterTheFirstRun) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim(2);
        Network net(&sim, std::make_unique<ConstantLatency>(1.0), NetworkConfig{});
        PingHost a;
        PingHost b;
        net.AddHost(&a);
        sim.SetLookaheadMs(1.0);
        sim.Run();
        net.AddHost(&b);
      },
      "host added after the first run: K>1 freezes the host -> shard partition");
}

TEST(SimulatorDeathTest, EngineRejectsManyShards) {
  // TotoroEngine runs at K=1 only (its per-app state is not shown to be thread-safe),
  // so building one over a K>1 simulator fails in the constructor, before any run.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim(2);
        Network net(&sim, std::make_unique<ConstantLatency>(1.0), NetworkConfig{});
        PastryNetwork pastry(&net, PastryConfig{});
        Rng rng(1);
        for (int i = 0; i < 4; ++i) {
          pastry.AddRandomNode(rng);
        }
        pastry.BuildOracle(rng);
        Forest forest(&pastry, ScribeConfig{});
        TotoroEngine engine(&forest, ComputeModel{}, /*seed=*/1);
      },
      "TotoroEngine runs at K=1 only");
}

TEST(SimulatorDeathTest, ManyShardsRejectBandwidthChangesDuringARun) {
  // Senders read the destination's bandwidth to time arrivals, so at K>1 it is
  // configuration: fixed while a run is in progress. Between runs it may change.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim(2);
        Network net(&sim, std::make_unique<ConstantLatency>(1.0), NetworkConfig{});
        PingHost a;
        PingHost b;
        net.AddHost(&a);
        net.AddHost(&b);
        sim.SetLookaheadMs(1.0);
        net.SetHostBandwidth(1, 500.0);
        sim.Schedule(1.0, [&net] { net.SetHostBandwidth(1, 100.0); });
        sim.Run();
      },
      "num_shards\\(\\) == 1 \\|\\| !sim_->running\\(\\)");
}

}  // namespace
}  // namespace totoro
