// Pastry leaf set: the L/2 numerically closest nodes on each side of the local id.
//
// The leaf set terminates routing (a key whose id falls inside the leaf-set range is
// delivered to the numerically closest member) and anchors failure recovery: when a
// routing-table entry dies the leaf set is consulted to rebuild, and leaf-set members
// monitor each other with keep-alives.
//
// Both sides live in one contiguous buffer (clockwise side first, then
// counter-clockwise, each sorted nearest-first). Covers/Closest run on every routing
// hop, and a single allocation means one cache stream per lookup instead of two
// pointer-chased vectors.
#ifndef SRC_DHT_LEAF_SET_H_
#define SRC_DHT_LEAF_SET_H_

#include <optional>
#include <span>
#include <vector>

#include "src/common/prefetch.h"
#include "src/dht/routing_table.h"

namespace totoro {

class LeafSet {
 public:
  // `size` is the total capacity L (split L/2 clockwise, L/2 counter-clockwise). The
  // set keeps no id of its own: methods that measure from the owner take `self`.
  explicit LeafSet(int size);

  // Offers a candidate; keeps the set as the L/2 closest per side. Returns true if the
  // set changed.
  bool Consider(const NodeId& self, const RouteEntry& entry);
  bool Remove(NodeId id);
  bool Contains(NodeId id) const;
  // Fills an empty set with `ring`: L distinct neighbors alternating clockwise and
  // counter-clockwise, nearest first. Offering them to Consider in order ends the same.
  void AssignRing(std::span<const RouteEntry> ring);

  // Whether `key` lies within [farthest ccw member, farthest cw member] (the leaf-set
  // coverage interval around self). Always true when the set is not yet full (small
  // rings: every node knows the whole ring).
  bool Covers(const NodeId& key) const;

  // Member (or `self`) numerically closest to key. When `alive` is provided, members
  // failing the predicate are skipped (self is always eligible) — used to route around
  // hosts whose transport connection is known-dead.
  RouteEntry Closest(const NodeId& key, const RouteEntry& self, AliveFn alive = {}) const;

  std::vector<RouteEntry> clockwise() const;
  std::vector<RouteEntry> counter_clockwise() const;
  std::vector<RouteEntry> All() const;
  size_t NumEntries() const { return entries_.size(); }
  bool Full() const;

  // Immediate ring neighbors (first entry on each side), if any.
  std::optional<RouteEntry> CwNeighbor() const;
  std::optional<RouteEntry> CcwNeighbor() const;

  // Hints the whole entry buffer (see prefetch.h): Covers reads the far end of each
  // side and Closest scans it all, so issue the lines up front and let the misses
  // overlap with whatever runs before the lookup.
  void Prefetch() const {
    const char* data = reinterpret_cast<const char*>(entries_.data());
    const size_t bytes = entries_.size() * sizeof(RouteEntry);
    for (size_t off = 0; off < bytes; off += 64) {
      PrefetchRead(data + off);
    }
  }

 private:
  size_t ccw_begin() const { return cw_count_; }

  // [0, cw_count_) clockwise side, [cw_count_, size()) counter-clockwise side; each
  // sorted by distance from self, nearest first.
  std::vector<RouteEntry> entries_;
  int size_;
  uint32_t cw_count_ = 0;
};

}  // namespace totoro

#endif  // SRC_DHT_LEAF_SET_H_
