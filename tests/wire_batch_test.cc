// Wire batching tests: the exact byte law of a coalescing run against an off-mode run
// of the same schedule, determinism of coalescing runs, no double-counting through the
// traffic metrics, and batches dying cleanly when a fault lands before their flush.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/faultsim/fault_injector.h"
#include "src/obs/export.h"
#include "src/pubsub/forest.h"
#include "src/pubsub/wire_batcher.h"
#include "src/sim/sharded_sim.h"

namespace totoro {
namespace {

// Same overlay harness as pubsub_test.cc: fixed seeds end to end.
struct World {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::unique_ptr<PastryNetwork> pastry;
  std::unique_ptr<Forest> forest;
  Rng rng{777};

  explicit World(size_t n, ScribeConfig scribe = {}) {
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    net = std::make_unique<Network>(
        &sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 3), net_config);
    pastry = std::make_unique<PastryNetwork>(net.get(), PastryConfig{});
    for (size_t i = 0; i < n; ++i) {
      pastry->AddRandomNode(rng);
    }
    pastry->BuildOracle(rng);
    forest = std::make_unique<Forest>(pastry.get(), scribe);
  }

  std::vector<size_t> AllNodes() const {
    std::vector<size_t> out(pastry->size());
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = i;
    }
    return out;
  }
};

uint64_t CounterValue(const std::string& name) {
  const Counter* c = GlobalMetrics().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

Message MakeControlMsg(uint64_t size_bytes,
                       TrafficClass traffic = TrafficClass::kTreeControl) {
  Message msg;
  msg.type = kScribeParentHeartbeat;
  msg.size_bytes = size_bytes;
  msg.traffic = traffic;
  msg.transport = Transport::kUdp;
  return msg;
}

// --- Unit level: a standalone WireBatcher between two pastry nodes. ---------------

constexpr uint64_t kFraming = WireBatcher::kFramingBytes;
constexpr uint64_t kSubheader = WireBatcher::kSubheaderBytes;

struct BatcherRunResult {
  uint64_t wire_bytes = 0;       // Network-accounted bytes for the run.
  uint64_t wire_messages = 0;    // Network-level sends (envelopes count once).
  uint64_t delivered = 0;        // Inner messages handed to the deliver handler.
  uint64_t delivered_bytes = 0;  // Sum of delivered inner size_bytes.
  uint64_t bytes_saved = 0;      // pubsub.batch.bytes_saved delta.
  uint64_t envelopes = 0;
  uint64_t coalesced = 0;
  uint64_t singles = 0;
};

// Sends a fixed message schedule from node 0 to node 1 through a WireBatcher: a burst
// of 4 in one event at t=0, a lone message at t=50, a second burst of 3 from three
// separate events at t=100, and a cross-class pair at t=200.
BatcherRunResult RunBatcherSchedule(bool coalesce) {
  World world(10);
  PastryNode& sender = world.pastry->node(0);
  PastryNode& receiver = world.pastry->node(1);
  const HostId dst = receiver.host();

  const uint64_t saved_before = CounterValue("pubsub.batch.bytes_saved");
  const uint64_t envelopes_before = CounterValue("pubsub.batch.envelopes");
  const uint64_t coalesced_before = CounterValue("pubsub.batch.coalesced_msgs");
  const uint64_t singles_before = CounterValue("pubsub.batch.singles");
  const uint64_t bytes_before = world.net->metrics().total_bytes();
  const uint64_t msgs_before = world.net->metrics().total_messages();

  WireBatcher batcher(&sender, coalesce);
  WireBatcher unbatcher(&receiver, coalesce);
  BatcherRunResult result;
  auto deliver = [&result](const NodeId&, const Message& inner, int) {
    EXPECT_EQ(inner.hops, 0) << "inner messages must never re-enter routing";
    ++result.delivered;
    result.delivered_bytes += inner.size_bytes;
  };
  receiver.SetDeliverHandler(kScribeParentHeartbeat, deliver);
  receiver.SetDeliverHandler(
      kScribeBatch, [&unbatcher, deliver](const NodeId& id, const Message& msg, int) {
        unbatcher.Unpack(msg, [&](const Message& inner) { deliver(id, inner, 0); });
      });

  world.sim.Schedule(0.0, [&] {
    for (int i = 0; i < 4; ++i) {
      batcher.Send(dst, MakeControlMsg(48 + static_cast<uint64_t>(i)));
    }
  });
  world.sim.Schedule(50.0, [&] { batcher.Send(dst, MakeControlMsg(64)); });
  // Separate events at one instant: all run before the flush the first one arms.
  for (int i = 0; i < 3; ++i) {
    world.sim.Schedule(100.0, [&] { batcher.Send(dst, MakeControlMsg(32)); });
  }
  // Same instant, different traffic classes: separate edges, must not merge.
  world.sim.Schedule(200.0, [&] {
    batcher.Send(dst, MakeControlMsg(40, TrafficClass::kTreeControl));
    batcher.Send(dst, MakeControlMsg(40, TrafficClass::kGradient));
  });
  world.sim.Run();

  result.wire_bytes = world.net->metrics().total_bytes() - bytes_before;
  result.wire_messages = world.net->metrics().total_messages() - msgs_before;
  result.bytes_saved = CounterValue("pubsub.batch.bytes_saved") - saved_before;
  result.envelopes = CounterValue("pubsub.batch.envelopes") - envelopes_before;
  result.coalesced = CounterValue("pubsub.batch.coalesced_msgs") - coalesced_before;
  result.singles = CounterValue("pubsub.batch.singles") - singles_before;
  return result;
}

constexpr uint64_t kScheduleMsgs = 10;
constexpr uint64_t kSchedulePayloadBytes =
    (48 + 49 + 50 + 51) + 64 + 3 * 32 + 2 * 40;

TEST(WireBatcherTest, OffModeSendsEveryMessageUnframed) {
  const auto r = RunBatcherSchedule(/*coalesce=*/false);
  EXPECT_EQ(r.wire_messages, kScheduleMsgs);
  EXPECT_EQ(r.delivered, kScheduleMsgs);
  EXPECT_EQ(r.wire_bytes, kSchedulePayloadBytes);
  EXPECT_EQ(r.delivered_bytes, kSchedulePayloadBytes);
  EXPECT_EQ(r.bytes_saved, 0u);
  EXPECT_EQ(r.envelopes, 0u);
}

TEST(WireBatcherTest, CoalesceByteLawHoldsAgainstOffMode) {
  const auto off = RunBatcherSchedule(/*coalesce=*/false);
  const auto on = RunBatcherSchedule(/*coalesce=*/true);

  // Every inner message arrives in both modes. Coalesced inner messages arrive at their
  // original size; only the three singles carry framing.
  EXPECT_EQ(on.delivered, kScheduleMsgs);
  EXPECT_EQ(on.delivered_bytes, kSchedulePayloadBytes + 3 * kFraming);
  // The schedule coalesces the burst of 4 and the burst of 3; the lone message and the
  // two cross-class messages go out as framed singles.
  EXPECT_EQ(on.envelopes, 2u);
  EXPECT_EQ(on.coalesced, 7u);
  EXPECT_EQ(on.singles, 3u);
  EXPECT_EQ(on.wire_messages, on.envelopes + on.singles);
  // The byte law, exactly: wire bytes plus bytes_saved are the off-mode bytes with one
  // framing per message the batcher sent.
  ASSERT_EQ(off.wire_messages, kScheduleMsgs);
  EXPECT_EQ(on.wire_bytes + on.bytes_saved, off.wire_bytes + kFraming * off.wire_messages);
  // And bytes_saved matches the closed form (k-1)*framing - k*subheader per envelope.
  const uint64_t expected_saved =
      (3 * kFraming - 4 * kSubheader) + (2 * kFraming - 3 * kSubheader);
  EXPECT_EQ(on.bytes_saved, expected_saved);
}

TEST(WireBatcherTest, OnlySameInstantSendsCoalesce) {
  // The flush runs at the instant of the send that armed it, so sends one virtual ms
  // apart leave as framed singles while a same-instant pair shares an envelope.
  World world(10);
  PastryNode& sender = world.pastry->node(0);
  const HostId dst = world.pastry->node(1).host();
  world.pastry->node(1).SetDeliverHandler(kScribeParentHeartbeat,
                                          [](const NodeId&, const Message&, int) {});
  world.pastry->node(1).SetDeliverHandler(kScribeBatch,
                                          [](const NodeId&, const Message&, int) {});
  WireBatcher batcher(&sender, /*coalesce=*/true);
  const uint64_t envelopes_before = CounterValue("pubsub.batch.envelopes");
  const uint64_t singles_before = CounterValue("pubsub.batch.singles");
  for (int i = 0; i < 3; ++i) {
    world.sim.Schedule(static_cast<double>(i), [&] { batcher.Send(dst, MakeControlMsg(32)); });
  }
  world.sim.Schedule(3.0, [&] {
    batcher.Send(dst, MakeControlMsg(32));
    batcher.Send(dst, MakeControlMsg(32));
  });
  world.sim.Run();
  EXPECT_EQ(CounterValue("pubsub.batch.singles") - singles_before, 3u);
  EXPECT_EQ(CounterValue("pubsub.batch.envelopes") - envelopes_before, 1u);
}

TEST(WireBatcherTest, SenderCrashBeforeFlushDropsPendingBatch) {
  World world(10);
  PastryNode& sender = world.pastry->node(0);
  PastryNode& receiver = world.pastry->node(1);
  WireBatcher batcher(&sender, /*coalesce=*/true);
  uint64_t delivered = 0;
  receiver.SetDeliverHandler(kScribeBatch,
                             [&](const NodeId&, const Message&, int) { ++delivered; });
  receiver.SetDeliverHandler(kScribeParentHeartbeat,
                             [&](const NodeId&, const Message&, int) { ++delivered; });

  const uint64_t envelopes_before = CounterValue("pubsub.batch.envelopes");
  const uint64_t saved_before = CounterValue("pubsub.batch.bytes_saved");
  const uint64_t dead_batches_before = CounterValue("pubsub.batch.dead_batches");
  const uint64_t dead_msgs_before = CounterValue("pubsub.batch.dead_batch_msgs");
  const uint64_t bytes_before = world.net->metrics().total_bytes();
  world.sim.Schedule(0.0, [&] {
    batcher.Send(receiver.host(), MakeControlMsg(48));
    batcher.Send(receiver.host(), MakeControlMsg(48));
  });
  // Scheduled after the sends at the same instant, the crash runs before the flush they
  // arm; the flush finds the sender dead and the batch dies with it — nothing reaches
  // the wire, but the batch's framed bytes (size + framing each, what off mode already
  // charged) are booked as saved so the byte law survives the crash.
  world.sim.Schedule(0.0, [&] { world.net->SetHostUp(sender.host(), false); });
  world.sim.Run();

  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(world.net->metrics().total_bytes(), bytes_before);
  EXPECT_EQ(CounterValue("pubsub.batch.envelopes"), envelopes_before);
  EXPECT_EQ(CounterValue("pubsub.batch.bytes_saved") - saved_before, 2 * (48 + kFraming));
  EXPECT_EQ(CounterValue("pubsub.batch.dead_batches") - dead_batches_before, 1u);
  EXPECT_EQ(CounterValue("pubsub.batch.dead_batch_msgs") - dead_msgs_before, 2u);
}

// One faultsim schedule run in either mode: a 3-message burst, then a fault that lands
// after the sends but before their flush — the sender crashes (followed by a
// post-crash send attempt) or the edge partitions.
struct FaultArmResult {
  uint64_t wire_bytes = 0;
  uint64_t wire_messages = 0;
  uint64_t saved = 0;
  uint64_t drops = 0;
  uint64_t partition_drops = 0;
  uint64_t delivered = 0;
};

enum class BurstFault { kSenderCrash, kPartition };

FaultArmResult RunFaultedBurst(bool coalesce, BurstFault fault) {
  World world(10);
  PastryNode& sender = world.pastry->node(0);
  PastryNode& receiver = world.pastry->node(1);
  FaultInjector injector(world.pastry.get(), nullptr, /*seed=*/7);
  WireBatcher batcher(&sender, coalesce);
  FaultArmResult result;
  auto count = [&result](const NodeId&, const Message&, int) { ++result.delivered; };
  receiver.SetDeliverHandler(kScribeParentHeartbeat, count);
  receiver.SetDeliverHandler(kScribeBatch, count);

  const uint64_t bytes_before = world.net->metrics().total_bytes();
  const uint64_t msgs_before = world.net->metrics().total_messages();
  const uint64_t saved_before = CounterValue("pubsub.batch.bytes_saved");
  const uint64_t drops_before = world.net->metrics().dropped_messages();
  world.sim.Schedule(0.0, [&] {
    for (int i = 0; i < 3; ++i) {
      batcher.Send(receiver.host(), MakeControlMsg(48));
    }
  });
  // Scheduled after the sends, so at t=0 the fault lands between them and their flush.
  FaultScript script;
  if (fault == BurstFault::kSenderCrash) {
    script.CrashAt(0.0, sender.host());
    // Post-crash send attempt: must take the same path (and record the same src-down
    // drop) in both modes instead of opening a fresh queue on a dead node.
    world.sim.Schedule(7.0, [&] { batcher.Send(receiver.host(), MakeControlMsg(32)); });
  } else {
    script.PartitionAt(0.0, {sender.host()}, {receiver.host()});
  }
  injector.Schedule(script);
  world.sim.Run();

  result.wire_bytes = world.net->metrics().total_bytes() - bytes_before;
  result.wire_messages = world.net->metrics().total_messages() - msgs_before;
  result.saved = CounterValue("pubsub.batch.bytes_saved") - saved_before;
  result.drops = world.net->metrics().dropped_messages() - drops_before;
  result.partition_drops = injector.stats().partition_drops;
  return result;
}

TEST(WireBatcherTest, SenderCrashByteLawHoldsAgainstOffMode) {
  const FaultArmResult off = RunFaultedBurst(/*coalesce=*/false, BurstFault::kSenderCrash);
  const FaultArmResult on = RunFaultedBurst(/*coalesce=*/true, BurstFault::kSenderCrash);
  // Off mode put the burst on the wire before the crash; coalescing lost it with the
  // sender and booked it as saved.
  EXPECT_EQ(off.wire_messages, 3u);
  EXPECT_EQ(on.wire_messages, 0u);
  EXPECT_EQ(on.saved, 3 * (48 + kFraming));
  EXPECT_EQ(on.wire_bytes + on.saved, off.wire_bytes + kFraming * off.wire_messages);
  EXPECT_EQ(on.drops, off.drops);  // The post-crash send, once each.
  EXPECT_EQ(on.drops, 1u);
}

TEST(WireBatcherTest, PartitionBeforeFlushDropsEnvelopeOnceNotPerInnerMessage) {
  // The edge partitions while a batch waits for its flush. The flush still runs (the
  // sender is alive), the envelope hits the partition, and the network charges exactly
  // ONE drop — the envelope — not one per inner message.
  const FaultArmResult off = RunFaultedBurst(/*coalesce=*/false, BurstFault::kPartition);
  const FaultArmResult on = RunFaultedBurst(/*coalesce=*/true, BurstFault::kPartition);
  EXPECT_EQ(on.delivered, 0u);
  EXPECT_EQ(on.partition_drops, 1u);
  EXPECT_EQ(on.drops, 1u);
  // Off mode put the burst on the wire before the partition, so all of it arrives.
  EXPECT_EQ(off.delivered, 3u);
  EXPECT_EQ(off.drops, 0u);
  // The envelope was still built and charged before the partition took it: the byte
  // law holds across the fault.
  EXPECT_EQ(on.saved, 2 * kFraming - 3 * kSubheader);
  EXPECT_EQ(on.wire_bytes + on.saved, off.wire_bytes + kFraming * off.wire_messages);
}

// --- End to end: a Forest with batching in the ScribeConfig. ----------------------

struct ForestRunResult {
  uint64_t total_bytes = 0;
  uint64_t total_messages = 0;
  uint64_t model_bytes = 0;
  // Network sends of the opcodes a ScribeNode hands to its batcher (off mode: every
  // message the batchers sent).
  uint64_t direct_scribe_sends = 0;
  uint64_t broadcasts_delivered = 0;
  uint64_t root_totals = 0;
  uint64_t bytes_saved = 0;
  uint64_t envelopes = 0;
  uint64_t coalesced = 0;
  uint64_t singles = 0;
  std::string metrics_json;
};

// Maintenance heartbeats across several same-membership topics are the coalescable
// traffic: each tick a parent sends one heartbeat per (child, topic), and topics
// sharing the (parent, child) edge merge into one envelope.
ForestRunResult RunForestScenario(bool coalesce) {
  GlobalMetrics().ResetValues();
  ScribeConfig scribe;
  scribe.enable_tree_repair = true;
  scribe.parent_heartbeat_ms = 100.0;
  scribe.parent_timeout_ms = 350.0;
  scribe.coalesce_sends = coalesce;
  World world(60, scribe);
  ForestRunResult result;
  // An observe-only fault hook: counts the direct scribe sends, affects nothing.
  world.net->SetFaultFn([&result](const Message& msg, FaultAction*) {
    switch (msg.type) {
      case kScribeBroadcast:
      case kScribeUpdate:
      case kScribeParentHeartbeat:
      case kScribeLeave:
        ++result.direct_scribe_sends;
        break;
      default:
        break;
    }
    return false;
  });

  std::vector<NodeId> topics;
  for (int t = 0; t < 6; ++t) {
    topics.push_back(world.forest->CreateTopic("batch-app-" + std::to_string(t)));
    world.forest->SubscribeAll(topics.back(), world.AllNodes());
  }

  for (size_t i = 0; i < world.forest->size(); ++i) {
    world.forest->scribe(i).SetOnBroadcast(
        [&result](const NodeId&, uint64_t, const ScribeBroadcast&) {
          ++result.broadcasts_delivered;
        });
    world.forest->scribe(i).SetOnRootAggregate(
        [&result](const NodeId&, uint64_t, const AggregationPiece&) {
          ++result.root_totals;
        });
  }
  world.forest->StartMaintenance();

  // Two app rounds over the first topic while heartbeats tick underneath.
  for (uint64_t round = 1; round <= 2; ++round) {
    world.sim.Schedule(150.0 * static_cast<double>(round), [&world, &topics, round] {
      const size_t root = world.forest->RootOf(topics[0]);
      world.forest->scribe(root).Broadcast(topics[0], round,
                                           std::make_shared<int>(7), 2048);
    });
    world.sim.Schedule(150.0 * static_cast<double>(round) + 60.0,
                       [&world, &topics, round] {
                         for (size_t i = 0; i < world.forest->size(); ++i) {
                           AggregationPiece piece;
                           world.forest->scribe(i).SubmitUpdate(topics[0], round,
                                                                std::move(piece), 512);
                         }
                       });
  }
  world.sim.RunFor(1000.0);

  result.total_bytes = world.net->metrics().total_bytes();
  result.total_messages = world.net->metrics().total_messages();
  result.model_bytes = world.net->metrics().TotalBytesByClass(TrafficClass::kModel);
  result.bytes_saved = CounterValue("pubsub.batch.bytes_saved");
  result.envelopes = CounterValue("pubsub.batch.envelopes");
  result.coalesced = CounterValue("pubsub.batch.coalesced_msgs");
  result.singles = CounterValue("pubsub.batch.singles");
  world.net->SetFaultFn({});
  world.net->metrics().PublishTo(GlobalMetrics());
  result.metrics_json = MetricsToJson(GlobalMetrics());
  return result;
}

TEST(WireBatchForestTest, CoalescedRunIsDeterministicByteEqualExports) {
  const auto r1 = RunForestScenario(/*coalesce=*/true);
  const auto r2 = RunForestScenario(/*coalesce=*/true);
  EXPECT_GT(r1.envelopes, 0u) << "scenario must actually exercise coalescing";
  EXPECT_EQ(r1.total_bytes, r2.total_bytes);
  EXPECT_EQ(r1.total_messages, r2.total_messages);
  EXPECT_EQ(r1.bytes_saved, r2.bytes_saved);
  EXPECT_EQ(r1.metrics_json, r2.metrics_json) << "same seed must export byte-equal";
}

TEST(WireBatchForestTest, EndToEndByteLawHoldsAgainstOffMode) {
  const auto off = RunForestScenario(/*coalesce=*/false);
  const auto on = RunForestScenario(/*coalesce=*/true);

  // The application outcome is unchanged by batching.
  EXPECT_EQ(on.broadcasts_delivered, off.broadcasts_delivered);
  EXPECT_EQ(on.root_totals, off.root_totals);
  EXPECT_GT(on.broadcasts_delivered, 0u);

  // Coalescing happened (heartbeats across the 6 same-membership topics share edges),
  // and every message the batchers took left exactly once, alone or in an envelope.
  EXPECT_GT(on.envelopes, 0u);
  EXPECT_GT(on.bytes_saved, 0u);
  EXPECT_EQ(on.coalesced + on.singles, off.direct_scribe_sends);
  EXPECT_LT(on.total_messages, off.total_messages);
  // The byte law against off mode: one framing per batcher send, nothing double-counted,
  // nothing lost. A broadcast forwarded with the framed size of the hop it arrived on
  // would add a framing per tree level and break it.
  EXPECT_EQ(on.total_bytes + on.bytes_saved,
            off.total_bytes + kFraming * off.direct_scribe_sends);
  // Model broadcasts in particular never leave in an envelope here (one per edge per
  // round), so each costs its payload plus exactly one framing.
  EXPECT_EQ(off.model_bytes % 2048, 0u);
  EXPECT_EQ(on.model_bytes, off.model_bytes + kFraming * (off.model_bytes / 2048));
}

struct ShardedForestResult {
  uint64_t total_bytes = 0;
  uint64_t total_messages = 0;
  uint64_t envelopes = 0;
  uint64_t bytes_saved = 0;
  std::string metrics_json;
};

// Coalescing heartbeat traffic on the sharded engine: batchers execute on shard
// worker threads (their flush timers join each host's canonical stream), so this is
// the batching path the TSan job watches — and K must stay a pure performance knob.
// Runs on a fresh thread so each K sees pristine thread-local metric sinks.
ShardedForestResult RunShardedForestScenario(size_t shards) {
  ShardedForestResult out;
  std::thread runner([&out, shards] {
    ShardedSimulator sim(shards);
    NetworkConfig net_config;
    net_config.model_bandwidth = false;
    Network net(&sim, std::make_unique<PairwiseUniformLatency>(1.0, 10.0, 3),
                net_config);
    PastryNetwork pastry(&net, PastryConfig{});
    Rng rng(777);
    constexpr size_t kNodes = 60;
    pastry.Reserve(kNodes);
    for (size_t i = 0; i < kNodes; ++i) {
      pastry.AddRandomNode(rng);
    }
    pastry.BuildOracle(rng);
    ScribeConfig scribe;
    scribe.enable_tree_repair = true;
    scribe.parent_heartbeat_ms = 100.0;
    scribe.coalesce_sends = true;
    Forest forest(&pastry, scribe);
    sim.SetLookaheadMs(net.latency_model().MinLatencyMs());

    std::vector<size_t> members(pastry.size());
    for (size_t i = 0; i < members.size(); ++i) {
      members[i] = i;
    }
    // No settle stagger: same-membership topics subscribe at the same instant, so
    // their heartbeat phases align and the same-instant flush has edges to merge
    // (6 trees over 60 hosts overlap enough (parent, child) edges to coalesce).
    for (int t = 0; t < 6; ++t) {
      forest.SubscribeAll(forest.CreateTopic("batch-shard-" + std::to_string(t)),
                          members);
    }
    forest.StartMaintenance();
    sim.RunUntil(800.0);

    out.total_bytes = net.metrics().total_bytes();
    out.total_messages = net.metrics().total_messages();
    out.envelopes = CounterValue("pubsub.batch.envelopes");
    out.bytes_saved = CounterValue("pubsub.batch.bytes_saved");
    net.metrics().PublishTo(GlobalMetrics());
    out.metrics_json = MetricsToJson(GlobalMetrics());
  });
  runner.join();
  return out;
}

TEST(WireBatchForestTest, CoalescedRunBitIdenticalAcrossShardCounts) {
  const ShardedForestResult base = RunShardedForestScenario(1);
  EXPECT_GT(base.envelopes, 0u) << "scenario must actually exercise coalescing";
  EXPECT_GT(base.bytes_saved, 0u);
  for (const size_t k : {size_t{2}, size_t{4}}) {
    const ShardedForestResult run = RunShardedForestScenario(k);
    EXPECT_EQ(run.total_bytes, base.total_bytes) << "K=" << k;
    EXPECT_EQ(run.total_messages, base.total_messages) << "K=" << k;
    EXPECT_EQ(run.envelopes, base.envelopes) << "K=" << k;
    EXPECT_EQ(run.bytes_saved, base.bytes_saved) << "K=" << k;
    EXPECT_EQ(run.metrics_json, base.metrics_json) << "K=" << k;
  }
}

TEST(WireBatchForestTest, OffModeTouchesNothing) {
  const auto off = RunForestScenario(/*coalesce=*/false);
  EXPECT_EQ(off.bytes_saved, 0u);
  EXPECT_EQ(off.envelopes, 0u);
  EXPECT_GT(off.broadcasts_delivered, 0u);
  // kOff is a pure passthrough: no batch series ever moves.
  EXPECT_EQ(CounterValue("pubsub.batch.singles"), 0u);
  EXPECT_EQ(CounterValue("pubsub.batch.coalesced_msgs"), 0u);
  EXPECT_EQ(CounterValue("pubsub.batch.unpacked_msgs"), 0u);
}

}  // namespace
}  // namespace totoro
