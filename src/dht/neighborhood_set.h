// Pastry neighborhood set: the M physically closest nodes, by network proximity.
//
// Not used for routing; maintains locality information for routing-table repair and for
// the locality-aware ring construction (§4.2: "contains a fixed number of nodes that are
// physically closest to that node").
#ifndef SRC_DHT_NEIGHBORHOOD_SET_H_
#define SRC_DHT_NEIGHBORHOOD_SET_H_

#include <vector>

#include "src/dht/routing_table.h"

namespace totoro {

class NeighborhoodSet {
 public:
  // Unlike the routing table and leaf set, members keep their proximity: it is the
  // set's sort key.
  struct Member {
    RouteEntry entry;
    double proximity_ms = 0.0;
  };

  explicit NeighborhoodSet(int capacity);

  // Offers a node other than the owner, at `proximity_ms`; keeps the `capacity`
  // nearest. Returns true if the set changed.
  bool Consider(const RouteEntry& entry, double proximity_ms);
  bool Remove(NodeId id);

  const std::vector<Member>& members() const { return members_; }
  size_t NumEntries() const { return members_.size(); }

 private:
  std::vector<Member> members_;  // Sorted by proximity, nearest first.
  uint32_t capacity_;
};

}  // namespace totoro

#endif  // SRC_DHT_NEIGHBORHOOD_SET_H_
