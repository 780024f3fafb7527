#include "src/core/totoro_api.h"

#include "src/common/check.h"

namespace totoro {

Totoro::Totoro(Options options) : options_(options), rng_(options.seed) {
  sim_ = std::make_unique<Simulator>();
  network_ = std::make_unique<Network>(
      sim_.get(),
      std::make_unique<PairwiseUniformLatency>(options_.latency_lo_ms, options_.latency_hi_ms,
                                               options_.seed ^ 0x1A7E),
      options_.network);
  MultiRingConfig ring_config;
  ring_config.pastry = options_.pastry;
  rings_ = std::make_unique<MultiRing>(network_.get(), ring_config);
}

Totoro::~Totoro() = default;

Totoro::NodeHandle Totoro::Join(ZoneId site) {
  CHECK(!overlay_built_);
  return rings_->AddNodeInZone(site, rng_);
}

void Totoro::BuildOverlay() {
  CHECK(!overlay_built_);
  rings_->Build(rng_);
  forest_ = std::make_unique<Forest>(&rings_->pastry(), options_.scribe);
  overlay_built_ = true;
  forest_->SetOnBroadcast(
      [this](HostId host, const NodeId& app_id, uint64_t round, const ScribeBroadcast& bc) {
        if (on_broadcast_) {
          on_broadcast_(host, app_id, round, bc.data);
        }
      });
  forest_->SetOnRootAggregate(
      [this](const NodeId& app_id, uint64_t round, const AggregationPiece& total) {
        if (on_aggregate_) {
          on_aggregate_(app_id, round, total.data, total.weight);
        }
      });
}

NodeId Totoro::CreateTree(const std::string& app_name) {
  CHECK(overlay_built_);
  return forest_->CreateTopic(app_name);
}

void Totoro::Subscribe(NodeHandle node, const NodeId& app_id) {
  CHECK(overlay_built_);
  CHECK_LT(node, forest_->size());
  forest_->scribe(node).Subscribe(app_id);
}

void Totoro::Broadcast(const NodeId& app_id, uint64_t round, ObjectPtr object,
                       uint64_t bytes) {
  CHECK(overlay_built_);
  const size_t root = forest_->RootOf(app_id);
  CHECK_NE(root, SIZE_MAX);
  forest_->scribe(root).Broadcast(app_id, round, std::move(object), bytes);
}

void Totoro::Aggregate(NodeHandle node, const NodeId& app_id, uint64_t round,
                       ObjectPtr object, double weight, uint64_t bytes) {
  CHECK(overlay_built_);
  CHECK_LT(node, forest_->size());
  AggregationPiece piece;
  piece.data = std::move(object);
  piece.weight = weight;
  piece.count = 1;
  forest_->scribe(node).SubmitUpdate(app_id, round, std::move(piece), bytes);
}

void Totoro::SetCombiner(CombineFn combiner) {
  CHECK(overlay_built_);
  for (size_t i = 0; i < forest_->size(); ++i) {
    forest_->scribe(i).SetCombineFn(combiner);
  }
}

void Totoro::SetOnBroadcast(OnBroadcastFn fn) { on_broadcast_ = std::move(fn); }

void Totoro::SetOnAggregate(OnAggregateFn fn) { on_aggregate_ = std::move(fn); }

void Totoro::SetOnTimer(const NodeId& app_id, double period_ms, OnTimerFn fn) {
  CHECK_GT(period_ms, 0.0);
  // Periodic progress callback; reschedules itself for the lifetime of the run. The
  // tick holds itself only through a weak_ptr: each scheduled event owns the one strong
  // reference, so the closure is freed with the last pending event, not leaked in a
  // cycle.
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [this, app_id, period_ms, fn = std::move(fn),
           self = std::weak_ptr<std::function<void()>>(tick)]() {
    fn(app_id);
    if (auto next = self.lock()) {
      sim_->Schedule(period_ms, [next]() { (*next)(); });
    }
  };
  sim_->Schedule(period_ms, [tick]() { (*tick)(); });
}

size_t Totoro::NumNodes() const { return rings_->pastry().size(); }

Totoro::NodeHandle Totoro::MasterOf(const NodeId& app_id) const {
  CHECK(overlay_built_);
  return forest_->RootOf(app_id);
}

Simulator& Totoro::sim() { return *sim_; }
Network& Totoro::network() { return *network_; }
Forest& Totoro::forest() {
  CHECK(overlay_built_);
  return *forest_;
}
MultiRing& Totoro::rings() { return *rings_; }

}  // namespace totoro
