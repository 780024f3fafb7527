#include "src/sim/network.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/prefetch.h"
#include "src/obs/trace.h"

namespace totoro {

Network::Network(Simulator* sim, std::unique_ptr<LatencyModel> latency, NetworkConfig config)
    : sim_(sim), latency_(std::move(latency)), config_(config) {
  CHECK(sim_ != nullptr);
  CHECK(latency_ != nullptr);
  if (sim_->num_shards() > 1) {
    metrics_.ShardGlobalTotals(1 + sim_->num_shards());
  }
}

HostId Network::AddHost(Host* host) {
  CHECK(host != nullptr);
  HostState state;
  state.host = host;
  state.bandwidth_bytes_per_ms = config_.default_bandwidth_bytes_per_ms;
  hosts_.push_back(state);
  metrics_.EnsureHosts(hosts_.size());
  const HostId id = static_cast<HostId>(hosts_.size() - 1);
  sim_->OnHostAdded(id);
  return id;
}

void Network::SetHostUp(HostId id, bool up) {
  CHECK_LT(id, hosts_.size());
  hosts_[id].up = up;
}

bool Network::IsUp(HostId id) const {
  CHECK_LT(id, hosts_.size());
  return hosts_[id].up;
}

void Network::SetHostBandwidth(HostId id, double bytes_per_ms) {
  CHECK_LT(id, hosts_.size());
  CHECK_GT(bytes_per_ms, 0.0);
  // Senders read the destination's bandwidth to time arrivals, so with shard workers
  // it must stay fixed while a run is in progress.
  CHECK(sim_->num_shards() == 1 || !sim_->running());
  hosts_[id].bandwidth_bytes_per_ms = bytes_per_ms;
}

void Network::Send(Message msg) {
  CHECK_LT(msg.src, hosts_.size());
  CHECK_LT(msg.dst, hosts_.size());
  // Sender phase: reads/writes only the sender's state, the destination's bandwidth
  // (configuration), the loss/fault hooks (fixed during K>1 windows), and this
  // thread's metrics lane.
  auto& src = hosts_[msg.src];
  if (!src.up) {
    metrics_.RecordDrop(msg.src, msg.traffic);
    return;
  }
  metrics_.RecordSend(msg);
  if (loss_fn_ && loss_fn_(msg)) {
    metrics_.RecordDrop(msg.src, msg.traffic);
    return;
  }
  FaultAction fault;
  if (fault_fn_ && fault_fn_(msg, &fault) && fault.drop) {
    metrics_.RecordDrop(msg.src, msg.traffic);
    return;
  }

  const SimTime now = sim_->Now();
  const double size = static_cast<double>(msg.size_bytes);
  const double prop = latency_->LatencyMs(msg.src, msg.dst) + fault.extra_delay_ms;
  const double rx_time =
      config_.model_bandwidth ? size / hosts_[msg.dst].bandwidth_bytes_per_ms : 0.0;
  // Each copy serializes through the sender's NIC in send order, then flies for `prop`
  // and takes `rx_time` to receive: its arrival is the earliest possible delivery.
  auto arrival = [&]() {
    SimTime departure = now;
    if (config_.model_bandwidth) {
      src.tx_free_at = std::max(src.tx_free_at, now) + size / src.bandwidth_bytes_per_ms;
      departure = src.tx_free_at;
    }
    return departure + prop + rx_time;
  };
  const SimTime first_arrival = arrival();

  Tracer& tracer = GlobalTracer();
  if (tracer.enabled()) {
    // The transmission itself is a span [send, arrival] on the sender, parented to the
    // message's existing context (multi-hop forwarding) or the sender's open span.
    const TraceContext parent = msg.trace.valid() ? msg.trace : tracer.current();
    msg.trace = tracer.RecordComplete(
        "net.msg", "net", msg.src, now, first_arrival, parent,
        {{"dst", std::to_string(msg.dst)},
         {"bytes", std::to_string(msg.size_bytes)},
         {"class", TrafficClassName(msg.traffic)}});
  }

  // The arrival event often fires soon; hint its cold reads (the destination's
  // transport state and accounting entry) now so the misses overlap with the
  // scheduling work below.
  PrefetchRead(&hosts_[msg.dst]);
  metrics_.PrefetchHost(msg.dst);

  // Fault-injected duplicates: each extra copy serializes through both NICs after the
  // original, so duplication consumes real bandwidth and arrives strictly later.
  for (int c = 0; c < fault.extra_copies; ++c) {
    metrics_.RecordSend(msg);
    ScheduleArrival(Message(msg), arrival());
  }
  ScheduleArrival(std::move(msg), first_arrival);
}

void Network::ScheduleArrival(Message&& msg, SimTime at) {
  const HostId src = msg.src;
  const HostId dst = msg.dst;
  auto arrive = [this, msg = std::move(msg)]() { Arrive(msg); };
  // The arrival closure is the hottest event in the system; it must stay within
  // EventFn's inline buffer or every message in flight costs a heap allocation.
  static_assert(sizeof(arrive) <= EventFn::kInlineSize,
                "Message grew: arrival closure no longer fits EventFn inline storage");
  sim_->ScheduleMessageArrival(src, dst, at, std::move(arrive));
}

void Network::Arrive(const Message& msg) {
  auto& dst = hosts_[msg.dst];
  if (config_.model_bandwidth) {
    // Book rx serialization in the destination's canonical event order, so NIC backlog
    // evolution is shard-layout-blind. The arrival already paid one rx_time, so an idle
    // NIC delivers now and only a backlogged one needs a second event.
    const SimTime now = sim_->Now();
    const double rx_time = static_cast<double>(msg.size_bytes) / dst.bandwidth_bytes_per_ms;
    dst.rx_free_at = std::max(dst.rx_free_at + rx_time, now);
    if (dst.rx_free_at > now) {
      sim_->ScheduleAt(dst.rx_free_at, [this, msg]() { Deliver(msg); });
      return;
    }
  }
  Deliver(msg);
}

void Network::Deliver(const Message& msg) {
  auto& dst_state = hosts_[msg.dst];
  // Pull the receiver object in while RecordDelivery runs; HandleMessage dispatches
  // into it immediately after and walks a few cache lines of routing state.
  const char* host_obj = reinterpret_cast<const char*>(dst_state.host);
  PrefetchRead(host_obj);
  PrefetchRead(host_obj + 64);
  PrefetchRead(host_obj + 128);
  PrefetchRead(host_obj + 192);
  if (!dst_state.up) {
    metrics_.RecordDrop(msg.dst, msg.traffic);
    return;
  }
  metrics_.RecordDelivery(msg);
  dst_state.host->HandleMessage(msg);
}

void Network::ReserveHosts(size_t n) {
  hosts_.reserve(n);
  metrics_.Reserve(n);
}

}  // namespace totoro
