#include "src/pubsub/wire_batcher.h"

#include <utility>

#include "src/common/check.h"
#include "src/obs/metrics_registry.h"

namespace totoro {
namespace {

Counter& EnvelopesCounter() {
  static thread_local Counter* c = &GlobalMetrics().GetCounter("pubsub.batch.envelopes");
  return *c;
}

Counter& CoalescedCounter() {
  static thread_local Counter* c =
      &GlobalMetrics().GetCounter("pubsub.batch.coalesced_msgs");
  return *c;
}

Counter& SinglesCounter() {
  static thread_local Counter* c = &GlobalMetrics().GetCounter("pubsub.batch.singles");
  return *c;
}

Counter& BytesSavedCounter() {
  static thread_local Counter* c = &GlobalMetrics().GetCounter("pubsub.batch.bytes_saved");
  return *c;
}

Counter& UnpackedCounter() {
  static thread_local Counter* c =
      &GlobalMetrics().GetCounter("pubsub.batch.unpacked_msgs");
  return *c;
}

Counter& DeadBatchMsgsCounter() {
  static thread_local Counter* c =
      &GlobalMetrics().GetCounter("pubsub.batch.dead_batch_msgs");
  return *c;
}

Counter& DeadBatchesCounter() {
  static thread_local Counter* c = &GlobalMetrics().GetCounter("pubsub.batch.dead_batches");
  return *c;
}

Histogram& MsgsPerEnvelopeHistogram() {
  static thread_local Histogram* h = &GlobalMetrics().GetHistogram(
      "pubsub.batch.msgs_per_envelope", Histogram::HopCountBounds());
  return *h;
}

}  // namespace

void WireBatcher::Send(HostId dst, Message msg) {
  if (!coalesce_ || !pastry_->alive()) {
    // Off mode is a passthrough. A dead sender must not open (or extend) a queue
    // either: off mode hands its message straight to the network, which records the
    // src-down drop and charges no bytes, so coalescing does exactly the same and the
    // byte law compares identical drops.
    pastry_->SendDirect(dst, std::move(msg));
    return;
  }
  const EdgeKey key{dst, static_cast<uint8_t>(msg.transport),
                    static_cast<uint8_t>(msg.traffic)};
  std::vector<Message>& queue = pending_[key];
  queue.push_back(std::move(msg));
  if (queue.size() == 1) {
    // First message of this instant: arm the zero-delay flush. Later messages for the
    // same edge at the same instant ride the already-armed event.
    pastry_->net()->sim()->Schedule(0.0, [this, key]() { Flush(key); });
  }
}

void WireBatcher::Flush(const EdgeKey& key) {
  auto it = pending_.find(key);
  if (it == pending_.end() || it->second.empty()) {
    return;
  }
  std::vector<Message> batch = std::move(it->second);
  pending_.erase(it);
  if (!pastry_->alive()) {
    // The sender died between the sends and the flush they armed, and the batch dies
    // with it — but not silently. Off mode put each of these messages on the wire at
    // send time, while the sender was alive, so the batch's framed bytes are booked as
    // saved to keep the byte law
    //   bytes(on) + bytes_saved == bytes(off) + kFramingBytes * (messages sent)
    // exact across the crash.
    uint64_t dead_bytes = 0;
    for (const Message& m : batch) {
      dead_bytes += m.size_bytes + kFramingBytes;
    }
    DeadBatchesCounter().Increment();
    DeadBatchMsgsCounter().Increment(batch.size());
    BytesSavedCounter().Increment(dead_bytes);
    return;
  }
  const HostId dst = std::get<0>(key);
  if (batch.size() == 1) {
    // A lone message gains nothing from an envelope (the subheader would be pure
    // overhead); it leaves on its own, paying its own framing.
    SinglesCounter().Increment();
    Message single = std::move(batch.front());
    single.size_bytes += kFramingBytes;
    pastry_->SendDirect(dst, std::move(single));
    return;
  }
  BatchEnvelope env;
  env.items.reserve(batch.size());
  uint64_t inner_bytes = 0;
  for (Message& m : batch) {
    inner_bytes += m.size_bytes + kSubheaderBytes;
    env.items.push_back(BatchEnvelope::Item{m.type, m.size_bytes, m.trace,
                                            std::move(m.payload)});
  }
  const uint64_t k = batch.size();
  // k messages would have paid k framings; the envelope pays one framing plus k
  // subheaders. Both sides of this identity are asserted by the byte-law tests.
  const uint64_t saved = (k - 1) * kFramingBytes - k * kSubheaderBytes;
  EnvelopesCounter().Increment();
  CoalescedCounter().Increment(k);
  BytesSavedCounter().Increment(saved);
  MsgsPerEnvelopeHistogram().Observe(static_cast<double>(k));
  Message wrapper;
  wrapper.type = kScribeBatch;
  wrapper.size_bytes = kFramingBytes + inner_bytes;
  wrapper.transport = static_cast<Transport>(std::get<1>(key));
  wrapper.traffic = static_cast<TrafficClass>(std::get<2>(key));
  wrapper.SetPayload(std::move(env));
  pastry_->SendDirect(dst, std::move(wrapper));
}

void WireBatcher::Unpack(const Message& envelope,
                         const std::function<void(const Message&)>& deliver) {
  CHECK_EQ(envelope.type, kScribeBatch);
  const auto& env = envelope.As<BatchEnvelope>();
  UnpackedCounter().Increment(env.items.size());
  for (const BatchEnvelope::Item& item : env.items) {
    // Reconstruct the message the sender would have sent individually. It is handed
    // straight to the deliver path — never back into Network::Send — so the wire is
    // charged exactly once, by the envelope.
    Message inner;
    inner.type = item.type;
    inner.src = envelope.src;
    inner.dst = envelope.dst;
    inner.size_bytes = item.size_bytes;
    inner.traffic = envelope.traffic;
    inner.transport = envelope.transport;
    inner.trace = item.trace;
    inner.payload = item.payload;
    deliver(inner);
  }
}

}  // namespace totoro
