#include "src/dht/neighborhood_set.h"

#include <algorithm>

#include "src/common/check.h"

namespace totoro {
namespace {

bool Nearer(const NeighborhoodSet::Member& a, const NeighborhoodSet::Member& b) {
  return a.proximity_ms < b.proximity_ms;
}

}  // namespace

NeighborhoodSet::NeighborhoodSet(int capacity) : capacity_(static_cast<uint32_t>(capacity)) {
  CHECK_GT(capacity, 0);
  members_.reserve(capacity_);  // The set's only allocation; Consider never exceeds it.
}

bool NeighborhoodSet::Consider(const RouteEntry& entry, double proximity_ms) {
  const Member candidate{entry, proximity_ms};
  for (auto& m : members_) {
    if (m.entry.id == entry.id) {
      if (m.proximity_ms != proximity_ms || m.entry.host != entry.host) {
        m = candidate;
        std::sort(members_.begin(), members_.end(), Nearer);
        return true;
      }
      return false;
    }
  }
  auto it = std::lower_bound(members_.begin(), members_.end(), candidate, Nearer);
  const size_t pos = static_cast<size_t>(it - members_.begin());
  if (members_.size() >= capacity_) {
    if (pos == members_.size()) {
      return false;
    }
    members_.pop_back();  // Evict first, so the vector never outgrows its reservation.
  }
  members_.insert(members_.begin() + static_cast<ptrdiff_t>(pos), candidate);
  return true;
}

bool NeighborhoodSet::Remove(NodeId id) {
  return std::erase_if(members_, [&id](const Member& m) { return m.entry.id == id; }) > 0;
}

}  // namespace totoro
