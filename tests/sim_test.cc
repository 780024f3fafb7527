#include <gtest/gtest.h>

#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace totoro {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(3.0, /*key=*/1, 0, [&] { order.push_back(3); });
  q.Push(1.0, /*key=*/2, 0, [&] { order.push_back(1); });
  q.Push(2.0, /*key=*/3, 0, [&] { order.push_back(2); });
  SimTime t = 0;
  while (q.PopAndRun(&t)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByKey) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Push(1.0, /*key=*/static_cast<uint64_t>(10 - i), 0, [&order, i] { order.push_back(i); });
  }
  SimTime t = 0;
  while (q.PopAndRun(&t)) {
  }
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(EventQueueTest, CancelledEventsSkipped) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.Push(1.0, /*key=*/1, 0, [&] { ++fired; });
  q.Push(2.0, /*key=*/2, 0, [&] { ++fired; });
  h.Cancel();
  SimTime t = 0;
  while (q.PopAndRun(&t)) {
  }
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, EqualTimeControlEventsKeepScheduleOrder) {
  // Driver-code events share the control stream's key sequence, so equal-time ties
  // resolve in the order they were scheduled.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1;
  sim.Schedule(5.0, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

TEST(SimulatorTest, NestedSchedulingKeepsOrder) {
  Simulator sim;
  std::vector<double> times;
  sim.Schedule(1.0, [&] {
    times.push_back(sim.Now());
    sim.Schedule(1.0, [&] { times.push_back(sim.Now()); });
  });
  sim.Schedule(1.5, [&] { times.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 1.5, 2.0}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(10.0, [&] { ++fired; });
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

class RecordingHost : public Host {
 public:
  void HandleMessage(const Message& msg) override {
    received.push_back(msg);
    receive_times.push_back(-1.0);  // Placeholder, overwritten by tests with sim access.
  }
  std::vector<Message> received;
  std::vector<double> receive_times;
};

class TimestampHost : public Host {
 public:
  explicit TimestampHost(Simulator* sim) : sim_(sim) {}
  void HandleMessage(const Message& msg) override {
    received.push_back(msg);
    times.push_back(sim_->Now());
  }
  std::vector<Message> received;
  std::vector<double> times;

 private:
  Simulator* sim_;
};

TEST(NetworkTest, DeliversWithPropagationLatency) {
  Simulator sim;
  NetworkConfig config;
  config.model_bandwidth = false;
  Network net(&sim, std::make_unique<ConstantLatency>(7.0), config);
  TimestampHost a(&sim);
  TimestampHost b(&sim);
  const HostId ha = net.AddHost(&a);
  const HostId hb = net.AddHost(&b);
  Message m;
  m.type = 1;
  m.src = ha;
  m.dst = hb;
  m.size_bytes = 100;
  net.Send(m);
  sim.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_DOUBLE_EQ(b.times[0], 7.0);
}

TEST(NetworkTest, BandwidthSerializesTransmissions) {
  Simulator sim;
  NetworkConfig config;
  config.default_bandwidth_bytes_per_ms = 100.0;  // 1000-byte msg = 10ms tx.
  Network net(&sim, std::make_unique<ConstantLatency>(1.0), config);
  TimestampHost a(&sim);
  TimestampHost b(&sim);
  const HostId ha = net.AddHost(&a);
  const HostId hb = net.AddHost(&b);
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.type = 1;
    m.src = ha;
    m.dst = hb;
    m.size_bytes = 1000;
    net.Send(m);
  }
  sim.Run();
  ASSERT_EQ(b.times.size(), 3u);
  // tx: 10, 20, 30; +1 latency; +10 rx each, serialized: 21, 31, 41.
  EXPECT_DOUBLE_EQ(b.times[0], 21.0);
  EXPECT_DOUBLE_EQ(b.times[1], 31.0);
  EXPECT_DOUBLE_EQ(b.times[2], 41.0);
}

TEST(NetworkTest, ReceiverDownlinkIsABottleneck) {
  // Many senders to one receiver: deliveries serialize at the receiver NIC — the star
  // topology effect that penalizes centralized parameter servers.
  Simulator sim;
  NetworkConfig config;
  config.default_bandwidth_bytes_per_ms = 100.0;
  Network net(&sim, std::make_unique<ConstantLatency>(0.5), config);
  TimestampHost server(&sim);
  const HostId hs = net.AddHost(&server);
  std::vector<std::unique_ptr<TimestampHost>> clients;
  for (int i = 0; i < 5; ++i) {
    clients.push_back(std::make_unique<TimestampHost>(&sim));
    const HostId hc = net.AddHost(clients.back().get());
    Message m;
    m.type = 1;
    m.src = hc;
    m.dst = hs;
    m.size_bytes = 1000;
    net.Send(m);
  }
  sim.Run();
  ASSERT_EQ(server.times.size(), 5u);
  // Each reception takes 10ms on the shared downlink: ~50ms total, not ~10.
  EXPECT_GT(server.times.back(), 45.0);
}

TEST(NetworkTest, MessagesToDownHostsAreDropped) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(1.0));
  TimestampHost a(&sim);
  TimestampHost b(&sim);
  const HostId ha = net.AddHost(&a);
  const HostId hb = net.AddHost(&b);
  net.SetHostUp(hb, false);
  Message m;
  m.type = 1;
  m.src = ha;
  m.dst = hb;
  net.Send(m);
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.metrics().dropped_messages(), 1u);
}

TEST(NetworkTest, HostDyingMidFlightDropsDelivery) {
  Simulator sim;
  NetworkConfig config;
  config.model_bandwidth = false;
  Network net(&sim, std::make_unique<ConstantLatency>(10.0), config);
  TimestampHost a(&sim);
  TimestampHost b(&sim);
  const HostId ha = net.AddHost(&a);
  const HostId hb = net.AddHost(&b);
  Message m;
  m.type = 1;
  m.src = ha;
  m.dst = hb;
  net.Send(m);
  sim.Schedule(5.0, [&] { net.SetHostUp(hb, false); });
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.metrics().dropped_messages(), 1u);
}

TEST(NetworkTest, MetricsAccounting) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(1.0));
  TimestampHost a(&sim);
  TimestampHost b(&sim);
  const HostId ha = net.AddHost(&a);
  const HostId hb = net.AddHost(&b);
  Message m;
  m.type = 1;
  m.src = ha;
  m.dst = hb;
  m.size_bytes = 500;
  m.transport = Transport::kTcp;
  m.traffic = TrafficClass::kModel;
  net.Send(m);
  m.transport = Transport::kUdp;
  m.traffic = TrafficClass::kDhtMaintenance;
  m.size_bytes = 50;
  net.Send(m);
  sim.Run();
  const auto& t = net.metrics().traffic(ha);
  EXPECT_EQ(t.msgs_sent, 2u);
  EXPECT_EQ(t.bytes_sent, 550u);
  EXPECT_EQ(t.bytes_sent_tcp, 500u);
  EXPECT_EQ(t.bytes_sent_udp, 50u);
  EXPECT_EQ(net.metrics().traffic(hb).bytes_recv, 550u);
  EXPECT_EQ(net.metrics().TotalBytesByClass(TrafficClass::kModel), 500u);
}

TEST(NetworkTest, LossFunctionDropsMessages) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(1.0));
  TimestampHost a(&sim);
  TimestampHost b(&sim);
  const HostId ha = net.AddHost(&a);
  const HostId hb = net.AddHost(&b);
  net.SetLossFn([](const Message&) { return true; });
  Message m;
  m.type = 1;
  m.src = ha;
  m.dst = hb;
  net.Send(m);
  sim.Run();
  EXPECT_TRUE(b.received.empty());
}

TEST(NetworkTest, PairwiseLatencyIsSymmetricAndStable) {
  PairwiseUniformLatency lat(5.0, 50.0, 99);
  for (HostId a = 0; a < 10; ++a) {
    for (HostId b = 0; b < 10; ++b) {
      if (a == b) {
        continue;
      }
      const double l1 = lat.LatencyMs(a, b);
      EXPECT_DOUBLE_EQ(l1, lat.LatencyMs(b, a));
      EXPECT_DOUBLE_EQ(l1, lat.LatencyMs(a, b));
      EXPECT_GE(l1, 5.0);
      EXPECT_LE(l1, 50.0);
    }
  }
}

TEST(MetricsTest, WorkAndStateAccounting) {
  NetworkMetrics metrics;
  metrics.EnsureHosts(2);
  metrics.ChargeWork(0, WorkKind::kFlTask, 10.0);
  metrics.ChargeWork(0, WorkKind::kDhtTask, 3.0);
  metrics.ChargeWork(1, WorkKind::kDhtTask, 2.0);
  metrics.AdjustStateBytes(0, 100);
  metrics.AdjustStateBytes(0, -40);
  EXPECT_DOUBLE_EQ(metrics.TotalWork(WorkKind::kFlTask), 10.0);
  EXPECT_DOUBLE_EQ(metrics.TotalWork(WorkKind::kDhtTask), 5.0);
  EXPECT_EQ(metrics.TotalStateBytes(), 60);
  EXPECT_EQ(metrics.work(0).state_bytes, 60);
}

}  // namespace
}  // namespace totoro
