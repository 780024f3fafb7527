#include "src/pubsub/scribe_node.h"

#include <algorithm>
#include <string>

#include "src/common/logging.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"

namespace totoro {
namespace {

constexpr int64_t kChildEntryBytes = 40;
constexpr int64_t kTopicStateBytes = 96;
constexpr uint64_t kControlMsgBytes = 48;

// Time from root send to each subscriber's delivery (Fig. 6a's dissemination time is
// this histogram's max over one broadcast).
Histogram& BroadcastLatencyHistogram() {
  static thread_local Histogram* h = &GlobalMetrics().GetHistogram("pubsub.broadcast.latency_ms",
                                                      Histogram::DefaultLatencyBoundsMs());
  return *h;
}

// Time from the earliest leaf submission to the root total landing (Fig. 6b).
Histogram& AggregateLatencyHistogram() {
  static thread_local Histogram* h = &GlobalMetrics().GetHistogram("pubsub.aggregate.latency_ms",
                                                      Histogram::DefaultLatencyBoundsMs());
  return *h;
}

// Resilience accounting: JOIN retransmissions, duplicate child reports dropped, late
// pieces for already-closed rounds dropped, and stale roots demoted after a heal.
Counter& JoinRetriesCounter() {
  static thread_local Counter* c = &GlobalMetrics().GetCounter("pubsub.join.retries");
  return *c;
}

Counter& DuplicateDropCounter() {
  static thread_local Counter* c =
      &GlobalMetrics().GetCounter("pubsub.update.duplicates_dropped");
  return *c;
}

Counter& ClosedRoundDropCounter() {
  static thread_local Counter* c =
      &GlobalMetrics().GetCounter("pubsub.update.closed_round_dropped");
  return *c;
}

Counter& RootDemotionsCounter() {
  static thread_local Counter* c = &GlobalMetrics().GetCounter("pubsub.root.demotions");
  return *c;
}

AggregationPiece DefaultCombine(const std::vector<AggregationPiece>& pieces) {
  // Weight/count bookkeeping with pass-through data; timing-only experiments use this.
  AggregationPiece out;
  for (const auto& p : pieces) {
    out.weight += p.weight;
    out.count += p.count;
    if (p.data != nullptr) {
      out.data = p.data;
    }
  }
  out.weight -= 1.0;  // Undo default-initialized weight.
  out.count -= 1;
  return out;
}

}  // namespace

ScribeNode::ScribeNode(PastryNode* pastry, ScribeConfig config)
    : pastry_(pastry), config_(config), batcher_(pastry, config.coalesce_sends),
      combine_(DefaultCombine) {
  pastry_->SetForwardHandler(kScribeJoin, [this](const NodeId& key, Message& inner,
                                                 HostId next_hop) {
    return OnJoinForward(key, inner, next_hop);
  });
  pastry_->SetDeliverHandler(kScribeJoin, [this](const NodeId& key, const Message& inner,
                                                 int hops) { OnJoinDeliver(key, inner, hops); });
  for (int type : {kScribeBroadcast, kScribeUpdate, kScribeParentHeartbeat, kScribeLeave}) {
    pastry_->SetDeliverHandler(
        type, [this](const NodeId&, const Message& msg, int) { OnDirectMessage(msg); });
  }
  pastry_->SetDeliverHandler(kScribeBatch, [this](const NodeId&, const Message& msg, int) {
    batcher_.Unpack(msg, [this](const Message& inner) { OnDirectMessage(inner); });
  });
}

ScribeNode::TopicState& ScribeNode::GetOrCreate(const NodeId& topic) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    it = topics_.emplace(topic, TopicState{}).first;
    it->second.topic = topic;
    ChargeState(kTopicStateBytes);
  }
  return it->second;
}

void ScribeNode::ChargeState(int64_t delta) {
  pastry_->net()->metrics().AdjustStateBytes(host(), delta);
}

void ScribeNode::AddChild(TopicState& state, HostId child_host, const NodeId& child_id) {
  if (child_host == host()) {
    return;
  }
  auto [it, inserted] = state.children.emplace(child_host, child_id);
  (void)it;
  if (inserted) {
    ChargeState(kChildEntryBytes);
  }
  // Tell the child who its parent is (also serves as the initial keep-alive).
  Message m;
  m.type = kScribeParentHeartbeat;
  m.size_bytes = kControlMsgBytes;
  m.traffic = TrafficClass::kTreeControl;
  m.transport = Transport::kUdp;
  m.SetPayload(ScribeParentHeartbeat{state.topic, pastry_->id()});
  batcher_.Send(child_host, std::move(m));
}

void ScribeNode::SendJoin(const NodeId& topic, bool direct) {
  TopicState& state = GetOrCreate(topic);
  state.join_pending = true;
  state.join_direct = direct;
  state.join_sent_ms = pastry_->net()->sim()->Now();
  if (state.join_backoff_ms <= 0.0) {
    state.join_backoff_ms = config_.join_retry_ms;
  }
  Message inner;
  inner.type = kScribeJoin;
  inner.size_bytes = kControlMsgBytes;
  inner.traffic = TrafficClass::kTreeControl;
  inner.transport = Transport::kTcp;
  inner.SetPayload(ScribeJoin{topic, host(), pastry_->id(), direct});
  pastry_->Route(topic, std::move(inner));
}

void ScribeNode::Subscribe(const NodeId& topic) {
  TopicState& state = GetOrCreate(topic);
  state.subscribed = true;
  if (state.is_root || state.parent != kInvalidHost) {
    return;  // Already attached as forwarder; just flip the subscriber bit.
  }
  SendJoin(topic);
}

void ScribeNode::Unsubscribe(const NodeId& topic) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return;
  }
  TopicState& state = it->second;
  state.subscribed = false;
  if (!state.children.empty() || state.is_root) {
    return;  // Still needed as forwarder/root.
  }
  if (state.parent != kInvalidHost) {
    Message m;
    m.type = kScribeLeave;
    m.size_bytes = kControlMsgBytes;
    m.traffic = TrafficClass::kTreeControl;
    m.transport = Transport::kUdp;
    m.SetPayload(ScribeLeave{topic, host()});
    batcher_.Send(state.parent, std::move(m));
  }
  ChargeState(-kTopicStateBytes -
              kChildEntryBytes * static_cast<int64_t>(state.children.size()));
  topics_.erase(it);
}

bool ScribeNode::OnJoinForward(const NodeId& key, Message& inner, HostId next_hop) {
  (void)key;  // The payload's topic is authoritative; the key only steered routing.
  ScribeJoin join = inner.As<ScribeJoin>();
  if (join.child_host == host()) {
    return true;  // We originated this JOIN; nothing to graft here.
  }
  if (next_hop == host()) {
    return true;  // We are the rendezvous; the deliver handler grafts and roots.
  }
  if (join.direct) {
    return true;  // Demotion re-join: graft only at the rendezvous (see ScribeJoin).
  }
  TopicState& state = GetOrCreate(join.topic);
  const bool was_in_tree = state.is_root || state.parent != kInvalidHost ||
                           state.join_pending;
  AddChild(state, join.child_host, join.child_id);
  if (was_in_tree) {
    return false;  // Already on a path to the root: absorb the JOIN.
  }
  // Graft ourselves: continue the JOIN toward the root on our own behalf.
  state.join_pending = true;
  state.join_direct = false;
  state.join_sent_ms = pastry_->net()->sim()->Now();
  if (state.join_backoff_ms <= 0.0) {
    state.join_backoff_ms = config_.join_retry_ms;
  }
  join.child_host = host();
  join.child_id = pastry_->id();
  inner.SetPayload(join);
  return true;
}

void ScribeNode::OnJoinDeliver(const NodeId& key, const Message& inner, int hops) {
  (void)hops;
  const auto& join = inner.As<ScribeJoin>();
  TopicState& state = GetOrCreate(join.topic);
  (void)key;
  state.is_root = true;
  state.join_pending = false;
  state.join_direct = false;
  state.join_backoff_ms = 0.0;
  state.parent = kInvalidHost;
  if (join.child_host != host()) {
    AddChild(state, join.child_host, join.child_id);
  }
}

void ScribeNode::Broadcast(const NodeId& topic, uint64_t round,
                           std::shared_ptr<const void> data, uint64_t size_bytes) {
  TraceSpan span = GlobalTracer().Begin("pubsub.broadcast", "pubsub", host());
  if (span.active()) {
    span.AddArg("round", std::to_string(round));
  }
  TopicState& state = GetOrCreate(topic);
  ScribeBroadcast bc;
  bc.topic = topic;
  bc.round = round;
  bc.data = std::move(data);
  bc.size_bytes = size_bytes;
  bc.origin_time = pastry_->net()->sim()->Now();
  bc.depth = 0;
  if (state.subscribed) {
    BroadcastLatencyHistogram().Observe(0.0);  // The root delivers to itself instantly.
    if (on_broadcast_) {
      on_broadcast_(topic, round, bc);
    }
  }
  ForwardBroadcastToChildren(state, bc);
}

void ScribeNode::ForwardBroadcastToChildren(const TopicState& state,
                                            const ScribeBroadcast& bc) {
  for (const auto& [child_host, child_id] : state.children) {
    (void)child_id;
    Message m;
    m.type = kScribeBroadcast;
    m.size_bytes = bc.size_bytes;
    m.traffic = TrafficClass::kModel;
    m.transport = Transport::kTcp;
    ScribeBroadcast next = bc;
    next.depth = bc.depth + 1;
    m.SetPayload(std::move(next));
    batcher_.Send(child_host, std::move(m));
  }
}

void ScribeNode::HandleBroadcast(const Message& msg) {
  const auto& bc = msg.As<ScribeBroadcast>();
  TraceSpan span =
      GlobalTracer().BeginWithParent("pubsub.broadcast.hop", "pubsub", host(), msg.trace);
  if (span.active()) {
    span.AddArg("depth", std::to_string(bc.depth));
  }
  auto it = topics_.find(bc.topic);
  if (it == topics_.end()) {
    return;  // Stale edge; we already left this tree.
  }
  TopicState& state = it->second;
  if (state.subscribed) {
    BroadcastLatencyHistogram().Observe(pastry_->net()->sim()->Now() - bc.origin_time);
    if (on_broadcast_) {
      on_broadcast_(bc.topic, bc.round, bc);
    }
  }
  ForwardBroadcastToChildren(state, bc);
}

void ScribeNode::SubmitUpdate(const NodeId& topic, uint64_t round, AggregationPiece piece,
                              uint64_t size_bytes) {
  TraceSpan span = GlobalTracer().Begin("pubsub.update.submit", "pubsub", host());
  if (span.active()) {
    span.AddArg("round", std::to_string(round));
  }
  TopicState& state = GetOrCreate(topic);
  AccumulateUpdate(state, round, std::move(piece), /*from_child=*/kInvalidHost, size_bytes,
                   pastry_->net()->sim()->Now());
}

void ScribeNode::AccumulateUpdate(TopicState& state, uint64_t round, AggregationPiece piece,
                                  HostId from_child, uint64_t size_bytes, SimTime origin_ms) {
  // A round whose aggregate already left this node is closed: stragglers past the
  // cut-off and duplicates arriving after the forward must not resurrect it (the old
  // code erased the RoundState on forward, so a late piece re-created the round fresh
  // and could re-fire a root aggregate).
  if (state.any_closed && round <= state.max_closed_round) {
    ClosedRoundDropCounter().Increment();
    return;
  }
  RoundState& rs = state.rounds[round];
  if (rs.forwarded) {
    return;  // Straggler past the cut-off; drop.
  }
  if (from_child == kInvalidHost) {
    rs.own_submitted = true;
  } else {
    // One contribution per child per round: a duplicated message (faulty link) or a
    // child resubmitting after a rejoin must not be double-counted.
    if (auto seen = rs.received_from.find(from_child); seen != rs.received_from.end()) {
      DuplicateDropCounter().Increment();
      return;
    }
    rs.received_from[from_child] = true;
  }
  rs.pieces.push_back(std::move(piece));
  rs.max_piece_bytes = std::max(rs.max_piece_bytes, size_bytes);
  if (rs.earliest_submit_ms < 0.0 || origin_ms < rs.earliest_submit_ms) {
    rs.earliest_submit_ms = origin_ms;
  }
  // Arm the straggler cut-off on first activity.
  if (config_.aggregation_timeout_ms > 0.0 && rs.pieces.size() == 1) {
    const NodeId topic = state.topic;
    rs.timeout = pastry_->net()->sim()->Schedule(
        config_.aggregation_timeout_ms, [this, topic, round]() {
          auto it = topics_.find(topic);
          if (it != topics_.end()) {
            MaybeForwardAggregate(it->second, round, /*timed_out=*/true);
          }
        });
  }
  MaybeForwardAggregate(state, round, /*timed_out=*/false);
}

void ScribeNode::MaybeForwardAggregate(TopicState& state, uint64_t round, bool timed_out) {
  auto round_it = state.rounds.find(round);
  if (round_it == state.rounds.end()) {
    return;
  }
  RoundState& rs = round_it->second;
  if (rs.forwarded) {
    return;
  }
  if (!timed_out) {
    // Completion requires every current child plus the local contribution (if we are a
    // subscriber) to have reported.
    if (state.subscribed && !rs.own_submitted) {
      return;
    }
    for (const auto& [child_host, child_id] : state.children) {
      (void)child_id;
      if (rs.received_from.find(child_host) == rs.received_from.end()) {
        return;
      }
    }
  }
  if (rs.pieces.empty()) {
    return;
  }
  if (timed_out && on_stragglers_) {
    std::vector<HostId> missing;
    for (const auto& [child_host, child_id] : state.children) {
      (void)child_id;
      if (rs.received_from.find(child_host) == rs.received_from.end()) {
        missing.push_back(child_host);
      }
    }
    if (!missing.empty()) {
      on_stragglers_(state.topic, round, missing);
    }
  }
  rs.forwarded = true;
  rs.timeout.Cancel();
  // FL-side cost of merging updates grows with the number of pieces.
  pastry_->net()->metrics().ChargeWork(host(), WorkKind::kFlTask,
                                       static_cast<double>(rs.pieces.size()));
  const auto combine_it = topic_combine_.find(state.topic);
  AggregationPiece total =
      combine_it != topic_combine_.end() ? combine_it->second(rs.pieces) : combine_(rs.pieces);
  const uint64_t size_bytes = rs.max_piece_bytes;
  const SimTime now = pastry_->net()->sim()->Now();
  const SimTime origin = rs.earliest_submit_ms >= 0.0 ? rs.earliest_submit_ms : now;
  state.rounds.erase(round_it);

  if (state.is_root) {
    state.any_closed = true;
    state.max_closed_round = std::max(state.max_closed_round, round);
    AggregateLatencyHistogram().Observe(now - origin);
    if (aggregate_audit_) {
      aggregate_audit_(state.topic, round, total);
    }
    if (on_root_aggregate_) {
      on_root_aggregate_(state.topic, round, total);
    }
    return;
  }
  if (state.parent == kInvalidHost) {
    // Detached (mid-repair): hold the aggregate as our own submission for this round so
    // it flows up once a parent heartbeat re-attaches us.
    RoundState& fresh = state.rounds[round];
    fresh.own_submitted = true;
    fresh.pieces.push_back(std::move(total));
    fresh.max_piece_bytes = size_bytes;
    fresh.earliest_submit_ms = origin;
    fresh.forwarded = false;
    return;
  }
  state.any_closed = true;
  state.max_closed_round = std::max(state.max_closed_round, round);
  Message m;
  m.type = kScribeUpdate;
  m.size_bytes = size_bytes;
  m.traffic = TrafficClass::kGradient;
  m.transport = Transport::kTcp;
  ScribeUpdate upd;
  upd.topic = state.topic;
  upd.round = round;
  upd.data = total.data;
  upd.weight = total.weight;
  upd.count = total.count;
  upd.size_bytes = size_bytes;
  upd.origin_time = origin;
  m.SetPayload(std::move(upd));
  batcher_.Send(state.parent, std::move(m));
}

void ScribeNode::HandleUpdate(const Message& msg) {
  const auto& upd = msg.As<ScribeUpdate>();
  TraceSpan span =
      GlobalTracer().BeginWithParent("pubsub.update.hop", "pubsub", host(), msg.trace);
  if (span.active()) {
    span.AddArg("round", std::to_string(upd.round));
    span.AddArg("count", std::to_string(upd.count));
  }
  auto it = topics_.find(upd.topic);
  if (it == topics_.end()) {
    return;
  }
  AggregationPiece piece;
  piece.data = upd.data;
  piece.weight = upd.weight;
  piece.count = upd.count;
  AccumulateUpdate(it->second, upd.round, std::move(piece), msg.src, upd.size_bytes,
                   upd.origin_time);
}

void ScribeNode::HandleParentHeartbeat(const Message& msg) {
  const auto& hb = msg.As<ScribeParentHeartbeat>();
  auto send_leave_to = [this, &hb](HostId target) {
    Message leave;
    leave.type = kScribeLeave;
    leave.size_bytes = kControlMsgBytes;
    leave.traffic = TrafficClass::kTreeControl;
    leave.transport = Transport::kUdp;
    leave.SetPayload(ScribeLeave{hb.topic, host()});
    batcher_.Send(target, std::move(leave));
  };
  auto it = topics_.find(hb.topic);
  if (it == topics_.end()) {
    // We already pruned this topic; a stale in-flight heartbeat must not resurrect the
    // state — tell the sender to drop the edge instead.
    send_leave_to(msg.src);
    return;
  }
  TopicState& state = it->second;
  if (state.is_root) {
    send_leave_to(msg.src);  // Roots have no parents; stale edge from a JOIN race.
    return;
  }
  const SimTime now = pastry_->net()->sim()->Now();
  if (state.parent == msg.src) {
    state.parent_id = hb.parent_id;
    state.last_parent_heartbeat = now;
    state.join_pending = false;
    state.join_direct = false;
    state.join_backoff_ms = 0.0;
    return;
  }
  // A different node claims to be our parent. Only adopt it if our current parent is
  // unknown or silent past the timeout; otherwise stale heartbeats from pruned parents
  // would flap the tree edge back and forth and strand subtrees.
  const bool current_parent_live =
      state.parent != kInvalidHost &&
      now - state.last_parent_heartbeat <= config_.parent_timeout_ms;
  if (current_parent_live) {
    send_leave_to(msg.src);
    return;
  }
  if (state.parent != kInvalidHost) {
    send_leave_to(state.parent);
  }
  state.parent = msg.src;
  state.parent_id = hb.parent_id;
  state.join_pending = false;
  state.join_direct = false;
  state.join_backoff_ms = 0.0;
  state.last_parent_heartbeat = now;
}

void ScribeNode::HandleLeave(const Message& msg) {
  const auto& leave = msg.As<ScribeLeave>();
  auto it = topics_.find(leave.topic);
  if (it == topics_.end()) {
    return;
  }
  TopicState& state = it->second;
  if (state.children.erase(leave.child_host) > 0) {
    ChargeState(-kChildEntryBytes);
  }
  // Prune: a childless, unsubscribed, non-root forwarder serves no one.
  if (state.children.empty() && !state.subscribed && !state.is_root) {
    Unsubscribe(leave.topic);
  }
}

void ScribeNode::OnDirectMessage(const Message& msg) {
  switch (msg.type) {
    case kScribeBroadcast:
      HandleBroadcast(msg);
      return;
    case kScribeUpdate:
      HandleUpdate(msg);
      return;
    case kScribeParentHeartbeat:
      HandleParentHeartbeat(msg);
      return;
    case kScribeLeave:
      HandleLeave(msg);
      return;
    default:
      TLOG_WARN("scribe host %u: unexpected direct message type %d", host(), msg.type);
  }
}

void ScribeNode::StartMaintenance() {
  if (!config_.enable_tree_repair || maintenance_running_) {
    return;
  }
  maintenance_running_ = true;
  // Failure detection starts now: parent-heartbeat stamps predating this moment come
  // from graft time, not from a live keep-alive exchange. Left stale, the first tick
  // would mass-declare every long-established parent dead (ReportDead on live nodes
  // erodes leaf sets ring-wide) purely because tree construction took longer than the
  // timeout.
  const SimTime now = pastry_->net()->sim()->Now();
  for (auto& [topic_key, state] : topics_) {
    (void)topic_key;
    if (state.parent != kInvalidHost) {
      state.last_parent_heartbeat = std::max(state.last_parent_heartbeat, now);
    }
  }
  // As in PastryNode::StartKeepAlive: pin the timer to this host's shard.
  pastry_->net()->sim()->RunAsHost(host(), [this] {
    pastry_->net()->sim()->Schedule(config_.parent_heartbeat_ms,
                                    [this]() { MaintenanceTick(); });
  });
}

void ScribeNode::MaintenanceTick() {
  if (!pastry_->alive()) {
    maintenance_running_ = false;
    return;
  }
  const SimTime now = pastry_->net()->sim()->Now();
  for (auto& [topic_key, state] : topics_) {
    (void)topic_key;
    // Root self-check: after a partition heals (or a crashed rendezvous rejoins), two
    // roots can coexist — one per former side. A root that can see a live node
    // numerically closer to the topic key demotes itself and grafts onto the true
    // root, merging the split trees. The test is deliberately the ownership question
    // (leaf-set numeric closeness), not the routing one: mid-repair a leaf set can
    // stop covering the key, which makes ComputeNextHop defer to a longer-prefix node
    // even though this node is still the closest id on the ring, and demoting on that
    // transient would leave the tree rootless.
    if (state.is_root && !pastry_->IsClosestKnownToKey(state.topic)) {
      TLOG_DEBUG("scribe host %u: no longer rendezvous for topic %s; demoting root",
                 host(), state.topic.ToHex().c_str());
      state.is_root = false;
      state.parent = kInvalidHost;
      RootDemotionsCounter().Increment();
      // The whole former subtree still hangs off this node, so the re-join must not
      // graft at a forwarder: picking one of our own descendants as parent would close
      // a parent cycle with no root in it.
      SendJoin(state.topic, /*direct=*/true);
    }
    // Parent side: refresh children.
    for (const auto& [child_host, child_id] : state.children) {
      (void)child_id;
      Message m;
      m.type = kScribeParentHeartbeat;
      m.size_bytes = kControlMsgBytes;
      m.traffic = TrafficClass::kTreeControl;
      m.transport = Transport::kUdp;
      m.SetPayload(ScribeParentHeartbeat{state.topic, pastry_->id()});
      batcher_.Send(child_host, std::move(m));
    }
    // Child side: detect a dead parent and re-route a JOIN toward the topic (§4.5).
    if (!state.is_root && state.parent != kInvalidHost &&
        now - state.last_parent_heartbeat > config_.parent_timeout_ms) {
      TLOG_DEBUG("scribe host %u: parent %u of topic %s timed out; rejoining", host(),
                 state.parent, state.topic.ToHex().c_str());
      pastry_->ReportDead(state.parent_id, state.parent);  // Clean DHT-level state too.
      state.parent = kInvalidHost;
      SendJoin(state.topic);
    } else if (!state.is_root && state.parent == kInvalidHost && !state.join_pending &&
               (state.subscribed || !state.children.empty())) {
      SendJoin(state.topic);
    } else if (config_.join_retry_ms > 0.0 && state.join_pending &&
               now - state.join_sent_ms >= state.join_backoff_ms) {
      // The pending JOIN (or its graft reply) was lost; retransmit with exponential
      // backoff so a flapping link does not amplify into a JOIN storm.
      constexpr double kJoinRetryMaxMs = 3200.0;
      state.join_backoff_ms = std::min(state.join_backoff_ms * 2.0, kJoinRetryMaxMs);
      JoinRetriesCounter().Increment();
      const double backoff = state.join_backoff_ms;
      SendJoin(state.topic, state.join_direct);
      state.join_backoff_ms = backoff;  // SendJoin must not reset the doubled value.
    }
  }
  pastry_->net()->sim()->Schedule(config_.parent_heartbeat_ms, [this]() { MaintenanceTick(); });
}

bool ScribeNode::InTree(const NodeId& topic) const {
  auto it = topics_.find(topic);
  return it != topics_.end() &&
         (it->second.is_root || it->second.parent != kInvalidHost || it->second.join_pending);
}

bool ScribeNode::IsRoot(const NodeId& topic) const {
  auto it = topics_.find(topic);
  return it != topics_.end() && it->second.is_root;
}

bool ScribeNode::IsSubscriber(const NodeId& topic) const {
  auto it = topics_.find(topic);
  return it != topics_.end() && it->second.subscribed;
}

HostId ScribeNode::ParentOf(const NodeId& topic) const {
  auto it = topics_.find(topic);
  return it == topics_.end() ? kInvalidHost : it->second.parent;
}

std::vector<HostId> ScribeNode::ChildrenOf(const NodeId& topic) const {
  std::vector<HostId> out;
  auto it = topics_.find(topic);
  if (it != topics_.end()) {
    for (const auto& [child_host, child_id] : it->second.children) {
      (void)child_id;
      out.push_back(child_host);
    }
  }
  return out;
}

std::vector<NodeId> ScribeNode::Topics() const {
  std::vector<NodeId> out;
  out.reserve(topics_.size());
  for (const auto& [key, state] : topics_) {
    (void)state;
    out.push_back(key);
  }
  return out;
}

}  // namespace totoro
