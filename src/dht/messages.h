// Wire-message opcodes and payload structs for the DHT layer.
//
// Opcode ranges are partitioned across layers so a single Host dispatch switch can never
// collide: DHT 1-99, pub/sub 100-199, FL engine 200-299, baselines 300-399.
#ifndef SRC_DHT_MESSAGES_H_
#define SRC_DHT_MESSAGES_H_

#include <vector>

#include "src/dht/routing_table.h"
#include "src/sim/message.h"

namespace totoro {

enum DhtMsgType : int {
  kDhtRouteEnvelope = 1,
  kDhtJoinRequest = 2,
  kDhtJoinState = 3,
  kDhtAnnounce = 4,
  kDhtHeartbeat = 5,
  kDhtHeartbeatAck = 6,
  kDhtLeafRepairRequest = 7,
  kDhtLeafRepairReply = 8,
};

// Envelope for key-based routing. `inner` is the application message. The envelope is
// immutable once wrapped: every hop forwards the same shared payload allocation and the
// per-hop counter travels in the wrapper Message's `hops` header field, so an entire
// route costs one envelope allocation (a forward handler that rewrites `inner` forces a
// fresh envelope — the rare, already-allocating path).
struct RouteEnvelope {
  NodeId key;
  Message inner;
  HostId origin = kInvalidHost;
};

struct JoinRequest {
  NodeId joiner_id;
  HostId joiner_host = kInvalidHost;
};

// State transferred to a joining node: the sender's own entry, routing rows relevant to
// the joiner, and (from the rendezvous node) the leaf set.
struct JoinState {
  RouteEntry sender;
  std::vector<RouteEntry> routing_entries;
  std::vector<RouteEntry> leaf_entries;
  bool from_rendezvous = false;
};

struct LeafRepair {
  std::vector<RouteEntry> leaf_entries;
};

// Approximate serialized size of a route entry on the wire (id + address + proximity).
inline constexpr uint64_t kRouteEntryWireBytes = 26;

}  // namespace totoro

#endif  // SRC_DHT_MESSAGES_H_
