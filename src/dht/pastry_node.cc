#include "src/dht/pastry_node.h"

#include <string>

#include "src/common/logging.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"

namespace totoro {
namespace {

// State-byte accounting granularity: the modelled per-entry state that Fig 13 reports,
// not the simulator's own footprint of an entry.
constexpr int64_t kEntryStateBytes = 48;

Histogram& RouteHopsHistogram() {
  static thread_local Histogram* h =
      &GlobalMetrics().GetHistogram("dht.route.hops", Histogram::HopCountBounds());
  return *h;
}

}  // namespace

PastryNode::PastryNode(Network* net, NodeId id, PastryConfig config)
    : net_(net),
      id_(id),
      host_(kInvalidHost),
      config_(config),
      routing_table_(id, config.bits_per_digit),
      leaf_set_(id, config.leaf_set_size),
      neighborhood_set_(id, config.neighborhood_size) {
  host_ = net_->AddHost(this);
}

namespace {

// Linear scan of a flat handler table (see the member comment in pastry_node.h).
template <typename Fn>
Fn* FindHandler(std::vector<std::pair<int, Fn>>& table, int type) {
  for (auto& [t, fn] : table) {
    if (t == type) {
      return &fn;
    }
  }
  return nullptr;
}

template <typename Fn>
void SetHandler(std::vector<std::pair<int, Fn>>& table, int type, Fn fn) {
  if (Fn* existing = FindHandler(table, type); existing != nullptr) {
    *existing = std::move(fn);
    return;
  }
  table.emplace_back(type, std::move(fn));
}

}  // namespace

void PastryNode::SetDeliverHandler(int app_type, DeliverFn fn) {
  SetHandler(deliver_handlers_, app_type, std::move(fn));
}

void PastryNode::SetForwardHandler(int app_type, ForwardFn fn) {
  SetHandler(forward_handlers_, app_type, std::move(fn));
}

RouteEntry PastryNode::SelfEntry() const { return RouteEntry{id_, host_, 0.0}; }

double PastryNode::ProximityTo(HostId other) const { return net_->LatencyMs(host_, other); }

void PastryNode::ChargeDhtWork(double units) {
  net_->metrics().ChargeWork(host_, WorkKind::kDhtTask, units);
}

RouteEntry PastryNode::ComputeNextHop(const NodeId& key) const {
  // Pastry routing (Rowstron & Druschel 2001, Fig. 3). Known-dead hosts are skipped:
  // this models the transport layer refusing the connection and Pastry falling back to
  // an alternate entry, which is FreePastry's behaviour under churn (lazy table repair
  // happens separately via ReportDead / keep-alives).
  const AliveFn alive{
      [](const void* ctx, const RouteEntry& e) {
        return static_cast<const Network*>(ctx)->IsUp(e.host);
      },
      net_};
  // (ForwardOrDeliver already issued prefetches for the leaf-set buffer and the
  // routing-table slot, so both lookups below usually hit warm lines.)
  // 1. Leaf set covers the key: deliver to the numerically closest member (maybe self).
  if (leaf_set_.Covers(key)) {
    // Fast path: pick without liveness filtering (all-up is the overwhelmingly common
    // case) and only rescan with the predicate when the winner is actually down —
    // one IsUp check instead of one per leaf-set member.
    const RouteEntry hop = leaf_set_.Closest(key, host_);
    if (hop.host == host_ || net_->IsUp(hop.host)) {
      return hop;
    }
    return leaf_set_.Closest(key, host_, alive);
  }
  // 2. Routing table: entry sharing a strictly longer prefix with the key.
  if (const RouteEntry* hop = routing_table_.NextHopPtr(key);
      hop != nullptr && net_->IsUp(hop->host)) {
    return *hop;
  }
  // 3. Rare fallback: any known node closer to the key with at least as long a prefix.
  if (auto hop = routing_table_.CloserFallback(key, alive); hop.has_value()) {
    return *hop;
  }
  return leaf_set_.Closest(key, host_, alive);
}

bool PastryNode::IsClosestKnownToKey(const NodeId& key) const {
  const AliveFn alive{
      [](const void* ctx, const RouteEntry& e) {
        return static_cast<const Network*>(ctx)->IsUp(e.host);
      },
      net_};
  return leaf_set_.Closest(key, host_, alive).host == host_;
}

void PastryNode::Route(const NodeId& key, Message inner) {
  TraceSpan span = GlobalTracer().Begin("dht.route", "dht", host_);
  if (span.active()) {
    span.AddArg("key", key.ToHex());
  }
  RouteEnvelope env;
  env.key = key;
  env.inner = std::move(inner);
  env.origin = host_;
  ForwardOrDeliver(std::make_shared<const RouteEnvelope>(std::move(env)), /*hops=*/0);
}

void PastryNode::ForwardOrDeliver(std::shared_ptr<const RouteEnvelope> env, int hops) {
  // Issue the next-hop lookup's cold reads (leaf-set buffer, routing-table slot) before
  // the accounting and filter work so the misses overlap with it.
  leaf_set_.Prefetch();
  routing_table_.PrefetchNextHop(env->key);
  ChargeDhtWork(1.0);
  if (egress_filter_ && !egress_filter_(env->key)) {
    TLOG_DEBUG("host %u: egress filter blocked packet for key %s", host_,
               env->key.ToHex().c_str());
    net_->metrics().RecordDrop(host_, env->inner.traffic);
    return;
  }
  const RouteEntry next = ComputeNextHop(env->key);
  // Give the layer above a chance to consume the message at this hop (Scribe-style
  // rendezvous interception). The handler takes a mutable inner message, so this path
  // works on a private copy of the envelope and re-wraps it; types without a forward
  // handler keep sharing the original allocation.
  if (ForwardFn* fwd = FindHandler(forward_handlers_, env->inner.type); fwd != nullptr) {
    RouteEnvelope mut = *env;
    if (!(*fwd)(mut.key, mut.inner, next.host)) {
      return;
    }
    env = std::make_shared<const RouteEnvelope>(std::move(mut));
  }
  if (env->inner.type == kDhtJoinRequest) {
    HandleJoinRequestAt(*env, /*is_destination=*/next.host == host_);
  }
  if (next.host == host_) {
    RouteHopsHistogram().Observe(static_cast<double>(hops));
    if (DeliverFn* del = FindHandler(deliver_handlers_, env->inner.type); del != nullptr) {
      (*del)(env->key, env->inner, hops);
    }
    return;
  }
  Message wrapper;
  wrapper.type = kDhtRouteEnvelope;
  wrapper.src = host_;
  wrapper.dst = next.host;
  wrapper.size_bytes = env->inner.size_bytes + 32;  // Envelope header overhead.
  wrapper.traffic = env->inner.traffic;
  wrapper.transport = env->inner.transport;
  wrapper.hops = static_cast<uint8_t>(hops + 1);
  wrapper.payload = std::move(env);
  net_->Send(std::move(wrapper));
}

void PastryNode::SendDirect(HostId dst, Message msg) {
  msg.src = host_;
  msg.dst = dst;
  net_->Send(std::move(msg));
}

void PastryNode::Join(HostId bootstrap) {
  JoinRequest req{id_, host_};
  Message inner;
  inner.type = kDhtJoinRequest;
  inner.size_bytes = 64;
  inner.traffic = TrafficClass::kDhtMaintenance;
  inner.transport = Transport::kTcp;
  inner.SetPayload(req);

  RouteEnvelope env;
  env.key = id_;
  env.inner = std::move(inner);
  env.origin = host_;

  Message wrapper;
  wrapper.type = kDhtRouteEnvelope;
  wrapper.src = host_;
  wrapper.dst = bootstrap;
  wrapper.size_bytes = 96;
  wrapper.traffic = TrafficClass::kDhtMaintenance;
  wrapper.transport = Transport::kTcp;
  wrapper.SetPayload(std::move(env));
  net_->Send(std::move(wrapper));
}

void PastryNode::HandleJoinRequestAt(const RouteEnvelope& env, bool is_destination) {
  const auto& req = env.inner.As<JoinRequest>();
  if (req.joiner_host == host_) {
    return;
  }
  // Ship the routing row matching the joiner's prefix depth at this node, plus (from the
  // rendezvous node) the leaf set; the joiner assembles its state from these fragments.
  JoinState state;
  state.sender = SelfEntry();
  state.sender.proximity_ms = 0.0;
  const int row = id_.CommonPrefixDigits(req.joiner_id, config_.bits_per_digit);
  for (int r = 0; r <= row && r < routing_table_.digits(); ++r) {
    for (const auto& e : routing_table_.Row(r)) {
      state.routing_entries.push_back(e);
    }
  }
  if (is_destination) {
    state.from_rendezvous = true;
    for (const auto& e : leaf_set_.All()) {
      state.leaf_entries.push_back(e);
    }
  }
  Message reply;
  reply.type = kDhtJoinState;
  reply.size_bytes = 32 + kRouteEntryWireBytes * (state.routing_entries.size() +
                                                  state.leaf_entries.size() + 1);
  reply.traffic = TrafficClass::kDhtMaintenance;
  reply.transport = Transport::kTcp;
  reply.SetPayload(std::move(state));
  SendDirect(req.joiner_host, std::move(reply));
  // The path node also learns about the joiner.
  Learn(RouteEntry{req.joiner_id, req.joiner_host, ProximityTo(req.joiner_host)});
}

void PastryNode::HandleJoinState(const Message& msg) {
  const auto& state = msg.As<JoinState>();
  Learn(RouteEntry{state.sender.id, state.sender.host, ProximityTo(state.sender.host)});
  for (const auto& e : state.routing_entries) {
    Learn(RouteEntry{e.id, e.host, ProximityTo(e.host)});
  }
  for (const auto& e : state.leaf_entries) {
    Learn(RouteEntry{e.id, e.host, ProximityTo(e.host)});
  }
  if (state.from_rendezvous) {
    // Final step of the join: announce ourselves to everyone we now know so they fold us
    // into their tables.
    Announce ann{SelfEntry()};
    auto announce_to = [&](const RouteEntry& e) {
      Message m;
      m.type = kDhtAnnounce;
      m.size_bytes = 32 + kRouteEntryWireBytes;
      m.traffic = TrafficClass::kDhtMaintenance;
      m.transport = Transport::kUdp;
      m.SetPayload(ann);
      SendDirect(e.host, std::move(m));
    };
    routing_table_.ForEach(announce_to);
    leaf_set_.ForEach(announce_to);
  }
}

void PastryNode::HandleAnnounce(const Message& msg) {
  const auto& ann = msg.As<Announce>();
  Learn(RouteEntry{ann.node.id, ann.node.host, ProximityTo(ann.node.host)});
}

void PastryNode::Learn(const RouteEntry& entry) {
  if (entry.id == id_) {
    return;
  }
  ChargeDhtWork(0.1);
  int64_t delta = 0;
  if (routing_table_.Consider(entry)) {
    delta += kEntryStateBytes;
  }
  if (leaf_set_.Consider(entry)) {
    delta += kEntryStateBytes;
  }
  if (neighborhood_set_.Consider(entry)) {
    delta += kEntryStateBytes;
  }
  if (delta != 0) {
    net_->metrics().AdjustStateBytes(host_, delta);
  }
}

void PastryNode::AddSuspect(const RouteEntry& entry) {
  const SimTime expires = net_->sim()->Now() + config_.suspect_ttl_ms;
  for (Suspect& s : suspects_) {
    if (s.entry.host == entry.host) {
      s.expires_ms = expires;
      return;
    }
  }
  // Bounded list: drop the entry closest to expiry when full.
  constexpr size_t kMaxSuspects = 32;
  if (suspects_.size() >= kMaxSuspects) {
    auto oldest = suspects_.begin();
    for (auto it = suspects_.begin(); it != suspects_.end(); ++it) {
      if (it->expires_ms < oldest->expires_ms) {
        oldest = it;
      }
    }
    suspects_.erase(oldest);
  }
  suspects_.push_back(Suspect{entry, expires});
}

void PastryNode::ProbeOneSuspect() {
  const SimTime now = net_->sim()->Now();
  while (!suspects_.empty()) {
    if (suspect_cursor_ >= suspects_.size()) {
      suspect_cursor_ = 0;
    }
    if (suspects_[suspect_cursor_].expires_ms <= now) {
      suspects_.erase(suspects_.begin() + static_cast<ptrdiff_t>(suspect_cursor_));
      continue;
    }
    // A plain keep-alive probe: if the suspect is back (partition healed, host
    // rejoined), its ack re-learns it here and the leaf-set gossip spreads the news.
    Message m;
    m.type = kDhtHeartbeat;
    m.size_bytes = 16;
    m.traffic = TrafficClass::kDhtMaintenance;
    m.transport = Transport::kUdp;
    m.SetPayload(SelfEntry());
    SendDirect(suspects_[suspect_cursor_].entry.host, std::move(m));
    ++suspect_cursor_;
    return;
  }
}

void PastryNode::ReportDead(const NodeId& id, HostId host) {
  ChargeDhtWork(0.5);
  if (config_.enable_suspect_probe && config_.enable_keepalive && host != host_) {
    AddSuspect(RouteEntry{id, host, ProximityTo(host)});
  }
  int64_t delta = 0;
  if (routing_table_.Remove(id)) {
    delta -= kEntryStateBytes;
  }
  if (leaf_set_.Remove(id)) {
    delta -= kEntryStateBytes;
    // Leaf-set repair: ask the current farthest members for their leaf sets so the hole
    // is refilled from the survivors (Pastry's standard repair).
    LeafRepair repair;
    for (const auto& e : leaf_set_.All()) {
      repair.leaf_entries.push_back(e);
    }
    auto ask = [&](const std::optional<RouteEntry>& target) {
      if (!target.has_value()) {
        return;
      }
      Message m;
      m.type = kDhtLeafRepairRequest;
      m.size_bytes = 32;
      m.traffic = TrafficClass::kDhtMaintenance;
      m.transport = Transport::kUdp;
      SendDirect(target->host, std::move(m));
    };
    ask(leaf_set_.CwNeighbor());
    ask(leaf_set_.CcwNeighbor());
  }
  if (neighborhood_set_.Remove(id)) {
    delta -= kEntryStateBytes;
  }
  if (delta != 0) {
    net_->metrics().AdjustStateBytes(host_, delta);
  }
  last_ack_.erase(host);
  if (failure_fn_) {
    failure_fn_(id, host);
  }
}

void PastryNode::StartKeepAlive() {
  if (!config_.enable_keepalive || keepalive_running_) {
    return;
  }
  keepalive_running_ = true;
  // Establish this node as the scheduling identity so the timer (and every reschedule
  // from inside the tick) lands on this host's shard under the sharded engine. A no-op
  // identity on the single-queue engine.
  net_->sim()->RunAsHost(host_, [this] {
    net_->sim()->Schedule(config_.keepalive_interval_ms, [this]() { KeepAliveTick(); });
  });
}

void PastryNode::KeepAliveTick() {
  if (!alive()) {
    keepalive_running_ = false;
    return;
  }
  for (const auto& e : leaf_set_.All()) {
    Message m;
    m.type = kDhtHeartbeat;
    m.size_bytes = 16;
    m.traffic = TrafficClass::kDhtMaintenance;
    m.transport = Transport::kUdp;
    m.SetPayload(SelfEntry());
    SendDirect(e.host, std::move(m));
    if (last_ack_.find(e.host) == last_ack_.end()) {
      last_ack_[e.host] = net_->sim()->Now();
    }
  }
  // Every few probes, gossip the full leaf set to the immediate ring neighbors over the
  // persistent TCP links — Pastry's periodic leaf-set exchange, which both repairs
  // drifted state and keeps connections warm.
  if (++keepalive_ticks_ % 4 == 0) {
    LeafRepair gossip;
    for (const auto& e : leaf_set_.All()) {
      gossip.leaf_entries.push_back(e);
    }
    gossip.leaf_entries.push_back(SelfEntry());
    for (const auto& neighbor : {leaf_set_.CwNeighbor(), leaf_set_.CcwNeighbor()}) {
      if (!neighbor.has_value()) {
        continue;
      }
      Message m;
      m.type = kDhtLeafRepairReply;
      m.size_bytes = 32 + kRouteEntryWireBytes * gossip.leaf_entries.size();
      m.traffic = TrafficClass::kDhtMaintenance;
      m.transport = Transport::kTcp;
      m.SetPayload(gossip);
      SendDirect(neighbor->host, std::move(m));
    }
  }
  if (config_.enable_suspect_probe) {
    ProbeOneSuspect();
  }
  CheckKeepAliveDeadlines();
  net_->sim()->Schedule(config_.keepalive_interval_ms, [this]() { KeepAliveTick(); });
}

void PastryNode::CheckKeepAliveDeadlines() {
  const SimTime now = net_->sim()->Now();
  std::vector<std::pair<NodeId, HostId>> dead;
  for (const auto& e : leaf_set_.All()) {
    auto it = last_ack_.find(e.host);
    if (it != last_ack_.end() && now - it->second > config_.keepalive_timeout_ms) {
      dead.emplace_back(e.id, e.host);
    }
  }
  for (const auto& [id, host] : dead) {
    TLOG_DEBUG("node %s detected failure of host %u", id_.ToHex().c_str(), host);
    ReportDead(id, host);
  }
}

void PastryNode::HandleHeartbeat(const Message& msg) {
  // The probe carries the sender's entry: fold it back in, so a suspect probe from a
  // node this side declared dead (partition, false positive) restores ring knowledge.
  if (msg.payload != nullptr) {
    const auto& sender = msg.As<RouteEntry>();
    Learn(RouteEntry{sender.id, sender.host, ProximityTo(sender.host)});
  }
  Message ack;
  ack.type = kDhtHeartbeatAck;
  ack.size_bytes = 16;
  ack.traffic = TrafficClass::kDhtMaintenance;
  ack.transport = Transport::kUdp;
  ack.SetPayload(SelfEntry());
  SendDirect(msg.src, std::move(ack));
}

void PastryNode::HandleHeartbeatAck(const Message& msg) {
  last_ack_[msg.src] = net_->sim()->Now();
  if (msg.payload != nullptr) {
    const auto& sender = msg.As<RouteEntry>();
    Learn(RouteEntry{sender.id, sender.host, ProximityTo(sender.host)});
  }
  // An answering suspect is alive again; stop probing it.
  for (auto it = suspects_.begin(); it != suspects_.end(); ++it) {
    if (it->entry.host == msg.src) {
      suspects_.erase(it);
      break;
    }
  }
}

void PastryNode::HandleLeafRepair(const Message& msg) {
  if (msg.type == kDhtLeafRepairRequest) {
    LeafRepair repair;
    for (const auto& e : leaf_set_.All()) {
      repair.leaf_entries.push_back(e);
    }
    repair.leaf_entries.push_back(SelfEntry());
    Message reply;
    reply.type = kDhtLeafRepairReply;
    reply.size_bytes = 32 + kRouteEntryWireBytes * repair.leaf_entries.size();
    reply.traffic = TrafficClass::kDhtMaintenance;
    reply.transport = Transport::kUdp;
    reply.SetPayload(std::move(repair));
    SendDirect(msg.src, std::move(reply));
    return;
  }
  const auto& repair = msg.As<LeafRepair>();
  for (const auto& e : repair.leaf_entries) {
    Learn(RouteEntry{e.id, e.host, ProximityTo(e.host)});
  }
}

void PastryNode::HandleEnvelope(const Message& msg) {
  // Adopt the shared envelope as-is; the hop count travels in the wrapper header.
  auto env = std::static_pointer_cast<const RouteEnvelope>(msg.payload);
  // The hop span parents to the incoming transmission (msg.trace) and scopes any
  // forwarded wrapper, chaining the whole route together.
  TraceSpan span = GlobalTracer().BeginWithParent("dht.route.hop", "dht", host_, msg.trace);
  if (span.active()) {
    span.AddArg("hops", std::to_string(msg.hops));
  }
  ForwardOrDeliver(std::move(env), msg.hops);
}

void PastryNode::HandleMessage(const Message& msg) {
  switch (msg.type) {
    case kDhtRouteEnvelope:
      HandleEnvelope(msg);
      return;
    case kDhtJoinState:
      HandleJoinState(msg);
      return;
    case kDhtAnnounce:
      HandleAnnounce(msg);
      return;
    case kDhtHeartbeat:
      HandleHeartbeat(msg);
      return;
    case kDhtHeartbeatAck:
      HandleHeartbeatAck(msg);
      return;
    case kDhtLeafRepairRequest:
    case kDhtLeafRepairReply:
      HandleLeafRepair(msg);
      return;
    default: {
      // Direct (non-routed) application message: dispatch to the deliver handler with
      // the local id as the key and zero overlay hops.
      if (DeliverFn* del = FindHandler(deliver_handlers_, msg.type); del != nullptr) {
        (*del)(id_, msg, 0);
        return;
      }
      TLOG_WARN("host %u dropping message with unknown type %d", host_, msg.type);
    }
  }
}

}  // namespace totoro
