// Wire batching for the pub/sub trees: coalesce messages sharing a tree edge.
//
// Per-message overhead on shared edges is one of the two hot paths the round trip
// pays (the other is model math, src/ml/kernels.h). Every direct scribe send — model
// broadcasts, gradient aggregates, heartbeats, leaves — models a framing cost per
// message on the real wire; when several messages leave one node over the same (dst,
// transport, traffic class) edge at one virtual instant, a BatchEnvelope pays that
// framing once and a small subheader per inner message instead.
//
// One switch, ScribeConfig::coalesce_sends:
//   off — passthrough: each message leaves as sent, with no framing charge (the
//         default; the committed bench baselines are recorded in this mode).
//   on  — messages are held per edge key until a zero-delay flush event, armed by the
//         first enqueue for that key, so the sends one node makes at one virtual
//         instant coalesce (e.g. a maintenance tick's heartbeats for many topics
//         sharing a child). A flush with one message sends it framed
//         (size + kFramingBytes); k > 1 messages leave as one kScribeBatch envelope of
//         kFramingBytes + sum(size_i + kSubheaderBytes) bytes. Bytes saved per
//         envelope: (k-1)*framing - k*subheader.
//
// Determinism: flushes are ordinary simulator events — scheduled when a key's queue
// goes empty -> non-empty, draining that key in enqueue order — so batching decisions
// are a pure function of the event sequence and runs stay bit-identical per seed.
//
// Accounting (obs registry): pubsub.batch.{envelopes,coalesced_msgs,singles,
// bytes_saved,unpacked_msgs} counters and a msgs-per-envelope histogram. Wire bytes
// plus bytes_saved are the bytes the same sends would cost framed one by one, so
// tests/wire_batch_test.cc enforces, against an off-mode run of the same schedule,
//   bytes(on) + bytes_saved == bytes(off) + kFramingBytes * (messages sent)
// — including across a sender crash between the sends and their flush: a flush that
// finds its node dead books the whole batch (size + framing per message) into
// bytes_saved and bumps pubsub.batch.{dead_batches,dead_batch_msgs}, since off mode
// had already put those messages on the wire before the crash; and a Send() on an
// already-dead node bypasses the queue, exactly as off mode does, so both modes record
// the identical src-down drop. Inner messages are delivered via Unpack() on the
// receiver and never re-enter Network::Send, so nothing double-counts through
// Message::hops or the traffic metrics.
#ifndef SRC_PUBSUB_WIRE_BATCHER_H_
#define SRC_PUBSUB_WIRE_BATCHER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "src/dht/pastry_node.h"
#include "src/pubsub/messages.h"

namespace totoro {

class WireBatcher {
 public:
  // Modelled per-message wire framing (link header + per-datagram cost).
  static constexpr uint64_t kFramingBytes = 28;
  // Per-inner-message subheader inside an envelope (opcode + length).
  static constexpr uint64_t kSubheaderBytes = 4;
  // Makes every k >= 2 envelope a net win: (k-1)*framing - k*subheader > 0.
  static_assert(kFramingBytes >= 2 * kSubheaderBytes);

  WireBatcher(PastryNode* pastry, bool coalesce) : pastry_(pastry), coalesce_(coalesce) {}

  // Sends a direct message, or with coalescing on enqueues it for this instant's
  // flush. `msg.dst`/`src` are stamped by PastryNode::SendDirect at actual send time.
  void Send(HostId dst, Message msg);

  // Unpacks a kScribeBatch envelope on the receiver, invoking `deliver` for each inner
  // message reconstructed with the envelope's src/dst. Inner messages do not pass
  // through Network::Send again.
  void Unpack(const Message& envelope,
              const std::function<void(const Message&)>& deliver);

 private:
  // One queue per tree edge + wire path: batching across transports or traffic
  // classes would merge flows the accounting (and the real wire) keeps separate.
  using EdgeKey = std::tuple<HostId, uint8_t /*Transport*/, uint8_t /*TrafficClass*/>;

  void Flush(const EdgeKey& key);

  PastryNode* pastry_;
  bool coalesce_;
  // Ordered map: drained per-key by flush events; ordered so any future whole-map walk
  // is schedule-safe (totoro_lint R2).
  std::map<EdgeKey, std::vector<Message>> pending_;
};

}  // namespace totoro

#endif  // SRC_PUBSUB_WIRE_BATCHER_H_
