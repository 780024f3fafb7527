#include "src/dht/leaf_set.h"

#include <algorithm>

#include "src/common/check.h"

namespace totoro {

LeafSet::LeafSet(int size) : size_(size) {
  CHECK_GE(size_, 2);
  CHECK_EQ(size_ % 2, 0);
  entries_.reserve(static_cast<size_t>(size_));  // Consider never exceeds it.
}

bool LeafSet::Consider(const NodeId& self, const RouteEntry& entry) {
  if (entry.id == self) {
    return false;
  }
  const size_t cap = static_cast<size_t>(size_ / 2);
  // A node can be in both sides of a sparse ring (fewer than L nodes total); that is
  // correct — coverage then spans the full circle. `first`/`count` delimit one side
  // within the shared buffer.
  auto insert_side = [&](size_t first, size_t count, const U128& dist, bool clockwise) {
    auto dist_of = [&](const RouteEntry& e) {
      return clockwise ? U128::ClockwiseDistance(self, e.id)
                       : U128::ClockwiseDistance(e.id, self);
    };
    const auto begin = entries_.begin() + static_cast<ptrdiff_t>(first);
    const auto end = begin + static_cast<ptrdiff_t>(count);
    if (std::any_of(begin, end, [&](const RouteEntry& e) { return e.id == entry.id; })) {
      return false;
    }
    const auto pos = std::lower_bound(
        begin, end, dist,
        [&](const RouteEntry& e, const U128& d) { return dist_of(e) < d; });
    if (count >= cap && pos == end) {
      return false;
    }
    const ptrdiff_t index = pos - entries_.begin();
    if (count >= cap) {
      // Evict the side's farthest member first, so the buffer never outgrows L.
      entries_.erase(end - 1);
    }
    entries_.insert(entries_.begin() + index, entry);
    return true;
  };
  const U128 cw_dist = U128::ClockwiseDistance(self, entry.id);
  const U128 ccw_dist = U128::ClockwiseDistance(entry.id, self);
  const bool cw = insert_side(0, cw_count_, cw_dist, /*clockwise=*/true);
  if (cw && cw_count_ < cap) {
    ++cw_count_;
  }
  const bool ccw = insert_side(ccw_begin(), entries_.size() - ccw_begin(), ccw_dist,
                               /*clockwise=*/false);
  return cw || ccw;
}

void LeafSet::AssignRing(std::span<const RouteEntry> ring) {
  CHECK(entries_.empty() && ring.size() == static_cast<size_t>(size_));
  cw_count_ = static_cast<uint32_t>(size_ / 2);
  entries_.resize(ring.size());
  for (size_t k = 0; k < ring.size(); ++k) {
    entries_[k / 2 + (k % 2 == 0 ? 0 : cw_count_)] = ring[k];
  }
}

bool LeafSet::Remove(NodeId id) {
  // A sparse ring can hold the node on both sides; each side holds it at most once.
  const auto is_id = [&id](const RouteEntry& e) { return e.id == id; };
  const auto cw = std::find_if(entries_.begin(), entries_.begin() + cw_count_, is_id);
  const bool in_cw = cw != entries_.begin() + cw_count_;
  if (in_cw) {
    entries_.erase(cw);
    --cw_count_;
  }
  const auto ccw = std::find_if(entries_.begin() + cw_count_, entries_.end(), is_id);
  const bool in_ccw = ccw != entries_.end();
  if (in_ccw) {
    entries_.erase(ccw);
  }
  return in_cw || in_ccw;
}

bool LeafSet::Contains(NodeId id) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&id](const RouteEntry& e) { return e.id == id; });
}

bool LeafSet::Full() const {
  const size_t cap = static_cast<size_t>(size_ / 2);
  return cw_count_ >= cap && entries_.size() - cw_count_ >= cap;
}

bool LeafSet::Covers(const NodeId& key) const {
  if (!Full()) {
    return true;
  }
  // Interval [farthest ccw, farthest cw] around self, measured clockwise from the
  // farthest ccw member.
  const NodeId& cw_far = entries_[cw_count_ - 1].id;
  const NodeId& ccw_far = entries_.back().id;
  const U128 span = U128::ClockwiseDistance(ccw_far, cw_far);
  const U128 offset = U128::ClockwiseDistance(ccw_far, key);
  return offset <= span;
}

RouteEntry LeafSet::Closest(const NodeId& key, const RouteEntry& self, AliveFn alive) const {
  // Fast path (no liveness filter, both sides populated and covering disjoint arcs —
  // the steady state on any ring with more than L nodes): the buffer, read as
  // [cw side, ccw side reversed], is sorted by clockwise position around self, so the
  // two ring-neighbors of `key` can be found by binary search. The numerically closest
  // member is always one of those two neighbors (circular distance is unimodal in ring
  // position, so its minimum over a set of positions is attained at an extreme), which
  // replaces L ring-distance computations with ~log2(L) position compares plus three
  // distance computations. Sparse rings where the sides overlap fall through to the
  // exhaustive scan below; both paths implement min by (distance, id) over
  // {self} ∪ members and therefore return bit-identical results.
  const size_t n = entries_.size();
  if (!alive && cw_count_ > 0 && cw_count_ < n &&
      U128::ClockwiseDistance(self.id, entries_[cw_count_ - 1].id) <
          U128::ClockwiseDistance(self.id, entries_.back().id)) {
    // Virtual index i walks the buffer in ascending clockwise position from self.
    const auto at = [&](size_t i) -> const RouteEntry& {
      return i < cw_count_ ? entries_[i] : entries_[n - 1 - (i - cw_count_)];
    };
    const U128 kp = U128::ClockwiseDistance(self.id, key);
    size_t lo = 0;
    size_t hi = n;  // First virtual index whose position is >= kp (n if none).
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (U128::ClockwiseDistance(self.id, at(mid).id) < kp) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const RouteEntry& succ = at(lo % n);
    const RouteEntry& pred = at((lo + n - 1) % n);
    RouteEntry best = self;
    U128 best_dist = U128::RingDistance(self.id, key);
    for (const RouteEntry* e : {&succ, &pred}) {
      const U128 d = U128::RingDistance(e->id, key);
      if (d < best_dist || (d == best_dist && e->id < best.id)) {
        best_dist = d;
        best = *e;
      }
    }
    return best;
  }

  RouteEntry best = self;
  U128 best_dist = U128::RingDistance(self.id, key);
  for (const auto& e : entries_) {
    if (alive && !alive(e)) {
      continue;
    }
    const U128 d = U128::RingDistance(e.id, key);
    if (d < best_dist || (d == best_dist && e.id < best.id)) {
      best_dist = d;
      best = e;
    }
  }
  return best;
}

std::vector<RouteEntry> LeafSet::clockwise() const {
  return std::vector<RouteEntry>(entries_.begin(),
                                 entries_.begin() + static_cast<ptrdiff_t>(cw_count_));
}

std::vector<RouteEntry> LeafSet::counter_clockwise() const {
  return std::vector<RouteEntry>(entries_.begin() + static_cast<ptrdiff_t>(ccw_begin()),
                                 entries_.end());
}

std::vector<RouteEntry> LeafSet::All() const {
  std::vector<RouteEntry> out(entries_.begin(),
                              entries_.begin() + static_cast<ptrdiff_t>(cw_count_));
  for (size_t i = ccw_begin(); i < entries_.size(); ++i) {
    const RouteEntry& e = entries_[i];
    if (std::none_of(out.begin(), out.end(), [&e](const RouteEntry& o) { return o.id == e.id; })) {
      out.push_back(e);
    }
  }
  return out;
}

std::optional<RouteEntry> LeafSet::CwNeighbor() const {
  if (cw_count_ == 0) {
    return std::nullopt;
  }
  return entries_.front();
}

std::optional<RouteEntry> LeafSet::CcwNeighbor() const {
  if (ccw_begin() >= entries_.size()) {
    return std::nullopt;
  }
  return entries_[ccw_begin()];
}

}  // namespace totoro
