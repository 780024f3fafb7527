#include <algorithm>
#include <memory>
#include <vector>

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

// Schedules control and host events at mixed and equal times, some of which schedule
// more at their own instant, and runs them in chunks of at most `bound` events (0: one
// unbounded Run). Returns the labels in firing order; each label names one event, so
// the list is the run's (time, key) order.
std::vector<int> RunMixedEvents(size_t bound) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(1.0), NetworkConfig{});
  RecordingHost a;
  RecordingHost b;
  const HostId ha = net.AddHost(&a);
  const HostId hb = net.AddHost(&b);
  std::vector<int> order;
  const auto at = [&sim, &order](SimTime t, int label) {
    sim.ScheduleAt(t, [&sim, &order, label] {
      order.push_back(label);
      if (label % 4 == 0) {
        sim.Schedule(0.0, [&order, label] { order.push_back(100 + label); });
      }
    });
  };
  at(2.0, 0);
  at(1.0, 1);
  sim.RunAsHost(ha, [&] {
    at(1.0, 2);
    at(0.5, 3);
    at(2.0, 4);
  });
  sim.RunAsHost(hb, [&] {
    at(1.0, 5);
    at(1.0, 6);
    at(3.0, 7);
  });
  at(1.0, 8);
  at(2.0, 9);
  const size_t total = 13;  // Ten scheduled here, three more inside (labels 0, 4, 8).
  if (bound == 0) {
    EXPECT_EQ(sim.Run(), total);
  } else {
    size_t fired = 0;
    while (!sim.Idle()) {
      const size_t chunk = sim.Run(bound);
      EXPECT_EQ(chunk, std::min(bound, total - fired));
      if (chunk == 0) {
        break;
      }
      fired += chunk;
      EXPECT_EQ(sim.events_fired(), fired);
      EXPECT_EQ(order.size(), fired);
    }
  }
  EXPECT_EQ(sim.events_fired(), total);
  return order;
}

TEST(SimulatorTest, BoundedRunsFireExactlyTheirBoundInTheUnboundedOrder) {
  // Time first; at one instant the control stream (drained, its own follow-ups too)
  // before host events, which order by host and then by schedule.
  const std::vector<int> unbounded = RunMixedEvents(0);
  EXPECT_EQ(unbounded, (std::vector<int>{3, 1, 8, 108, 2, 5, 6, 0, 9, 100, 4, 104, 7}));
  for (const size_t bound : {size_t{1}, size_t{3}}) {
    EXPECT_EQ(RunMixedEvents(bound), unbounded) << "bound " << bound;
  }
}

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

TEST(NetworkTest, FaultHookDropsMessagesAfterAccountingTheSend) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(1.0));
  TimestampHost a(&sim);
  TimestampHost b(&sim);
  const HostId ha = net.AddHost(&a);
  const HostId hb = net.AddHost(&b);
  net.SetFaultFn([](const Message&, FaultAction* action) {
    action->drop = true;
    return true;
  });
  Message m;
  m.type = 1;
  m.src = ha;
  m.dst = hb;
  net.Send(m);
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  // The send is charged to the wire, then lost at the sender.
  EXPECT_EQ(net.metrics().total_messages(), 1u);
  EXPECT_EQ(net.metrics().total_bytes(), m.size_bytes);
  EXPECT_EQ(net.metrics().traffic(ha).msgs_dropped(), 1u);
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
