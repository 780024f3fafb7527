// Wire messages for the publish/subscribe forest (opcodes 100-199).
#ifndef SRC_PUBSUB_MESSAGES_H_
#define SRC_PUBSUB_MESSAGES_H_

#include <memory>
#include <vector>

#include "src/dht/node_id.h"
#include "src/sim/message.h"

namespace totoro {

enum PubSubMsgType : int {
  kScribeJoin = 100,           // Routed toward the topic (AppId).
  kScribeBroadcast = 101,      // Direct, parent -> children, down-tree.
  kScribeUpdate = 102,         // Direct, child -> parent, up-tree.
  kScribeParentHeartbeat = 103,  // Direct, parent -> children keep-alive.
  kScribeLeave = 104,          // Direct, child -> parent.
  kScribeBatch = 105,          // Direct: several coalesced messages in one envelope.
};

// JOIN toward the rendezvous node. `child_host` is rewritten at every hop that grafts
// itself into the tree, so each tree edge connects adjacent hops of the JOIN path —
// the "union of all JOIN messages' paths" of §4.3 step (c).
struct ScribeJoin {
  NodeId topic;
  HostId child_host = kInvalidHost;
  NodeId child_id;
  // When set, intermediate hops must not graft this JOIN — it grafts only at the
  // rendezvous. Used by a demoting ex-root whose whole subtree still hangs off it:
  // grafting at a forwarder could pick one of its own descendants and close a parent
  // cycle, leaving the subtree unreachable from any root.
  bool direct = false;
};

// Down-tree payload (model broadcast). `size_bytes` is the payload size every hop
// forwards (the wire size of a received message may include framing); `origin_time`
// stamps the root's send for dissemination-latency measurement; `depth` counts tree
// levels traversed.
struct ScribeBroadcast {
  NodeId topic;
  uint64_t round = 0;
  std::shared_ptr<const void> data;
  uint64_t size_bytes = 0;
  SimTime origin_time = 0.0;
  int depth = 0;
};

// Up-tree payload (gradient aggregation). `weight` carries FedAvg sample counts;
// `count` is how many leaf contributions are folded into this partial aggregate.
// `origin_time` is the earliest leaf submission folded in, carried up so the root can
// measure end-to-end aggregation latency.
struct ScribeUpdate {
  NodeId topic;
  uint64_t round = 0;
  std::shared_ptr<const void> data;
  double weight = 1.0;
  uint64_t count = 1;
  uint64_t size_bytes = 0;
  SimTime origin_time = 0.0;
};

struct ScribeParentHeartbeat {
  NodeId topic;
  NodeId parent_id;  // Lets children clean DHT state when they declare the parent dead.
};

struct ScribeLeave {
  NodeId topic;
  HostId child_host = kInvalidHost;
};

// Several scribe messages bound for the same (dst, transport, traffic class) at one
// virtual instant, coalesced into a single wire envelope (boki-style appendable
// buffer): one per-message framing header is paid for the whole batch, each inner
// message costs only a small subheader. Items keep their original opcode, size and
// trace context so the receiver unpacks them as if they had arrived individually
// (src/pubsub/wire_batcher.h owns the flush rule and the byte accounting).
struct BatchEnvelope {
  struct Item {
    int type = 0;               // Inner opcode (kScribeBroadcast, kScribeUpdate, ...).
    uint64_t size_bytes = 0;    // Inner payload size (pre-framing).
    TraceContext trace;         // Causal context of the original send.
    std::shared_ptr<const void> payload;
  };
  std::vector<Item> items;  // In enqueue order — the order they would have been sent.
};

}  // namespace totoro

#endif  // SRC_PUBSUB_MESSAGES_H_
