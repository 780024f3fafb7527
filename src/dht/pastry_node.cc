#include "src/dht/pastry_node.h"

#include <algorithm>
#include <string>

#include "src/common/logging.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"

namespace totoro {
namespace {

// State-byte accounting granularity: the modelled per-entry state that Fig 13 reports,
// not the simulator's own footprint of an entry.
constexpr int64_t kEntryStateBytes = 48;

// A DHT maintenance message of `type`; the caller adds any payload.
Message Maintenance(int type, uint64_t size_bytes, Transport transport) {
  Message m;
  m.type = type;
  m.size_bytes = size_bytes;
  m.traffic = TrafficClass::kDhtMaintenance;
  m.transport = transport;
  return m;
}

Histogram& RouteHopsHistogram() {
  static thread_local Histogram* h =
      &GlobalMetrics().GetHistogram("dht.route.hops", Histogram::HopCountBounds());
  return *h;
}

}  // namespace

PastryNode::PastryNode(Network* net, NodeId id, const PastryConfig& config)
    : net_(net),
      config_(config),
      host_(kInvalidHost),
      routing_table_(id, config.bits_per_digit),
      leaf_set_(config.leaf_set_size),
      neighborhood_set_(config.neighborhood_size) {
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

RouteEntry PastryNode::SelfEntry() const { return RouteEntry{id(), host_}; }

double PastryNode::ProximityTo(HostId other) const { return net_->LatencyMs(host_, other); }

AliveFn PastryNode::HostsUp() const {
  return AliveFn{[](const void* ctx, const RouteEntry& e) {
                   return static_cast<const Network*>(ctx)->IsUp(e.host);
                 },
                 net_};
}

ProximityFn PastryNode::proximity() const {
  return ProximityFn{[](const void* ctx, HostId other) {
                       return static_cast<const PastryNode*>(ctx)->ProximityTo(other);
                     },
                     this};
}

void PastryNode::ChargeDhtWork(double units) {
  net_->metrics().ChargeWork(host_, WorkKind::kDhtTask, units);
}

RouteEntry PastryNode::ComputeNextHop(const NodeId& key) const {
  // Pastry routing (Rowstron & Druschel 2001, Fig. 3). Known-dead hosts are skipped:
  // this models the transport layer refusing the connection and Pastry falling back to
  // an alternate entry, which is FreePastry's behaviour under churn (lazy table repair
  // happens separately via ReportDead / keep-alives).
  const AliveFn alive = HostsUp();
  // (ForwardOrDeliver already issued prefetches for the leaf-set buffer and the
  // routing-table slot, so both lookups below usually hit warm lines.)
  // 1. Leaf set covers the key: deliver to the numerically closest member (maybe self).
  if (leaf_set_.Covers(key)) {
    // Fast path: pick without liveness filtering (all-up is the overwhelmingly common
    // case) and only rescan with the predicate when the winner is actually down —
    // one IsUp check instead of one per leaf-set member.
    const RouteEntry hop = leaf_set_.Closest(key, SelfEntry());
    if (hop.host == host_ || net_->IsUp(hop.host)) {
      return hop;
    }
    return leaf_set_.Closest(key, SelfEntry(), alive);
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
  return leaf_set_.Closest(key, SelfEntry(), alive);
}

bool PastryNode::IsClosestKnownToKey(const NodeId& key) const {
  return leaf_set_.Closest(key, SelfEntry(), HostsUp()).host == host_;
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
  RouteEnvelope env;
  env.key = id();
  env.inner = Maintenance(kDhtJoinRequest, 64, Transport::kTcp);
  env.inner.SetPayload(JoinRequest{id(), host_});
  env.origin = host_;
  Message wrapper = Maintenance(kDhtRouteEnvelope, 96, Transport::kTcp);
  wrapper.SetPayload(std::move(env));
  SendDirect(bootstrap, std::move(wrapper));
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
  const int row = id().CommonPrefixDigits(req.joiner_id, config_.bits_per_digit);
  for (int r = 0; r <= row && r < routing_table_.digits(); ++r) {
    const std::vector<RouteEntry> entries = routing_table_.Row(r);
    state.routing_entries.insert(state.routing_entries.end(), entries.begin(), entries.end());
  }
  if (is_destination) {
    state.from_rendezvous = true;
    state.leaf_entries = leaf_set_.All();
  }
  Message reply = Maintenance(
      kDhtJoinState,
      32 + kRouteEntryWireBytes * (state.routing_entries.size() + state.leaf_entries.size() + 1),
      Transport::kTcp);
  reply.SetPayload(std::move(state));
  SendDirect(req.joiner_host, std::move(reply));
  // The path node also learns about the joiner.
  Learn(RouteEntry{req.joiner_id, req.joiner_host});
}

void PastryNode::HandleJoinState(const Message& msg) {
  const auto& state = msg.As<JoinState>();
  Learn(state.sender);
  for (const auto& e : state.routing_entries) {
    Learn(e);
  }
  for (const auto& e : state.leaf_entries) {
    Learn(e);
  }
  if (state.from_rendezvous) {
    // Final step of the join: announce ourselves to everyone we now know so they fold us
    // into their tables.
    auto announce_to = [&](const RouteEntry& e) {
      Message m = Maintenance(kDhtAnnounce, 32 + kRouteEntryWireBytes, Transport::kUdp);
      m.SetPayload(SelfEntry());
      SendDirect(e.host, std::move(m));
    };
    routing_table_.ForEach(announce_to);
    for (const RouteEntry& e : leaf_set_.All()) {
      announce_to(e);
    }
  }
}

void PastryNode::Learn(const RouteEntry& entry, RoutingTable::DenseRows* staged, bool in_leaf_set) {
  if (entry.id == id()) {
    return;
  }
  ChargeDhtWork(0.1);
  const double proximity_ms = ProximityTo(entry.host);
  int64_t delta = 0;
  if (staged != nullptr ? staged->Consider(entry, proximity_ms, proximity())
                        : routing_table_.Consider(entry, proximity_ms, proximity())) {
    delta += kEntryStateBytes;
  }
  if (in_leaf_set || leaf_set_.Consider(id(), entry)) {
    delta += kEntryStateBytes;
  }
  if (neighborhood_set_.Consider(entry, proximity_ms)) {
    delta += kEntryStateBytes;
  }
  if (delta != 0) {
    net_->metrics().AdjustStateBytes(host_, delta);
  }
}

PastryNode::KeepAlive& PastryNode::KeepAliveState() {
  if (keepalive_ == nullptr) {
    keepalive_ = std::make_unique<KeepAlive>();
  }
  return *keepalive_;
}

void PastryNode::AddSuspect(const RouteEntry& entry) {
  const SimTime expires = net_->sim()->Now() + config_.suspect_ttl_ms;
  std::vector<KeepAlive::Suspect>& suspects = KeepAliveState().suspects;
  for (KeepAlive::Suspect& s : suspects) {
    if (s.entry.host == entry.host) {
      s.expires_ms = expires;
      return;
    }
  }
  // Bounded list: drop the entry closest to expiry when full.
  constexpr size_t kMaxSuspects = 32;
  if (suspects.size() >= kMaxSuspects) {
    auto oldest = suspects.begin();
    for (auto it = suspects.begin(); it != suspects.end(); ++it) {
      if (it->expires_ms < oldest->expires_ms) {
        oldest = it;
      }
    }
    suspects.erase(oldest);
  }
  suspects.push_back(KeepAlive::Suspect{entry, expires});
}

void PastryNode::ProbeOneSuspect() {
  const SimTime now = net_->sim()->Now();
  std::vector<KeepAlive::Suspect>& suspects = keepalive_->suspects;
  size_t& cursor = keepalive_->suspect_cursor;
  while (!suspects.empty()) {
    if (cursor >= suspects.size()) {
      cursor = 0;
    }
    if (suspects[cursor].expires_ms <= now) {
      suspects.erase(suspects.begin() + static_cast<ptrdiff_t>(cursor));
      continue;
    }
    // A plain keep-alive probe: if the suspect is back (partition healed, host
    // rejoined), its ack re-learns it here and the leaf-set gossip spreads the news.
    SendBeat(kDhtHeartbeat, suspects[cursor].entry.host);
    ++cursor;
    return;
  }
}

void PastryNode::ReportDead(const NodeId& id, HostId host) {
  ChargeDhtWork(0.5);
  if (config_.enable_suspect_probe && config_.enable_keepalive && host != host_) {
    AddSuspect(RouteEntry{id, host});
  }
  int64_t delta = 0;
  if (routing_table_.Remove(id)) {
    delta -= kEntryStateBytes;
  }
  if (leaf_set_.Remove(id)) {
    delta -= kEntryStateBytes;
    // Leaf-set repair: ask the current farthest members for their leaf sets so the hole
    // is refilled from the survivors (Pastry's standard repair).
    for (const auto& target : {leaf_set_.CwNeighbor(), leaf_set_.CcwNeighbor()}) {
      if (target.has_value()) {
        SendDirect(target->host, Maintenance(kDhtLeafRepairRequest, 32, Transport::kUdp));
      }
    }
  }
  if (neighborhood_set_.Remove(id)) {
    delta -= kEntryStateBytes;
  }
  if (delta != 0) {
    net_->metrics().AdjustStateBytes(host_, delta);
  }
  if (keepalive_ != nullptr) {
    std::erase_if(keepalive_->acks, [host](const auto& ack) { return ack.first == host; });
  }
  if (failure_fn_) {
    failure_fn_(id, host);
  }
}

void PastryNode::StartKeepAlive() {
  if (!config_.enable_keepalive || KeepAliveState().running) {
    return;
  }
  keepalive_->running = true;
  // Establish this node as the scheduling identity so the timer (and every reschedule
  // from inside the tick) joins this host's canonical event stream and, at K>1, lands
  // on its shard.
  net_->sim()->RunAsHost(host_, [this] {
    net_->sim()->Schedule(config_.keepalive_interval_ms, [this]() { KeepAliveTick(); });
  });
}

void PastryNode::KeepAliveTick() {
  KeepAlive& ka = *keepalive_;
  if (!alive()) {
    ka.running = false;
    return;
  }
  // Nothing below changes the leaf set, so one snapshot serves the whole tick.
  const std::vector<RouteEntry> members = leaf_set_.All();
  std::vector<std::pair<HostId, SimTime>> acks;
  acks.reserve(members.size());
  for (const auto& e : members) {
    SendBeat(kDhtHeartbeat, e.host);
    const auto known = std::find_if(ka.acks.begin(), ka.acks.end(),
                                    [&e](const auto& ack) { return ack.first == e.host; });
    acks.emplace_back(e.host, known != ka.acks.end() ? known->second : net_->sim()->Now());
  }
  ka.acks = std::move(acks);
  // Every few probes, gossip the full leaf set to the immediate ring neighbors over the
  // persistent TCP links — Pastry's periodic leaf-set exchange, which both repairs
  // drifted state and keeps connections warm.
  if (++ka.ticks % 4 == 0) {
    for (const auto& neighbor : {leaf_set_.CwNeighbor(), leaf_set_.CcwNeighbor()}) {
      if (neighbor.has_value()) {
        SendDirect(neighbor->host, LeafSetReply(Transport::kTcp));
      }
    }
  }
  if (config_.enable_suspect_probe) {
    ProbeOneSuspect();
  }
  CheckKeepAliveDeadlines(members);
  net_->sim()->Schedule(config_.keepalive_interval_ms, [this]() { KeepAliveTick(); });
}

void PastryNode::CheckKeepAliveDeadlines(const std::vector<RouteEntry>& members) {
  const SimTime now = net_->sim()->Now();
  std::vector<std::pair<NodeId, HostId>> dead;
  for (size_t i = 0; i < members.size(); ++i) {
    if (now - keepalive_->acks[i].second > config_.keepalive_timeout_ms) {
      dead.emplace_back(members[i].id, members[i].host);
    }
  }
  for (const auto& [dead_id, host] : dead) {
    TLOG_DEBUG("node %s detected failure of host %u", id().ToHex().c_str(), host);
    ReportDead(dead_id, host);
  }
}

void PastryNode::SendBeat(int type, HostId dst) {
  Message m = Maintenance(type, 16, Transport::kUdp);
  m.SetPayload(SelfEntry());
  SendDirect(dst, std::move(m));
}

void PastryNode::HandleHeartbeat(const Message& msg) {
  // The probe carries the sender's entry: fold it back in, so a suspect probe from a
  // node this side declared dead (partition, false positive) restores ring knowledge.
  if (msg.payload != nullptr) {
    Learn(msg.As<RouteEntry>());
  }
  SendBeat(kDhtHeartbeatAck, msg.src);
}

void PastryNode::HandleHeartbeatAck(const Message& msg) {
  if (keepalive_ != nullptr) {
    // Only members heartbeated at the last tick have an ack time to refresh.
    for (auto& [host, at] : keepalive_->acks) {
      if (host == msg.src) {
        at = net_->sim()->Now();
      }
    }
    // An answering suspect is alive again; stop probing it.
    std::erase_if(keepalive_->suspects,
                  [&msg](const KeepAlive::Suspect& s) { return s.entry.host == msg.src; });
  }
  if (msg.payload != nullptr) {
    Learn(msg.As<RouteEntry>());
  }
}

Message PastryNode::LeafSetReply(Transport transport) const {
  LeafRepair reply{leaf_set_.All()};
  reply.leaf_entries.push_back(SelfEntry());
  Message m = Maintenance(kDhtLeafRepairReply,
                          32 + kRouteEntryWireBytes * reply.leaf_entries.size(), transport);
  m.SetPayload(std::move(reply));
  return m;
}

void PastryNode::HandleLeafRepair(const Message& msg) {
  if (msg.type == kDhtLeafRepairRequest) {
    SendDirect(msg.src, LeafSetReply(Transport::kUdp));
    return;
  }
  const auto& repair = msg.As<LeafRepair>();
  for (const auto& e : repair.leaf_entries) {
    Learn(e);
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
      Learn(msg.As<RouteEntry>());
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
        (*del)(id(), msg, 0);
        return;
      }
      TLOG_WARN("host %u dropping message with unknown type %d", host_, msg.type);
    }
  }
}

}  // namespace totoro
