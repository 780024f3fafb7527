#include "src/dht/neighborhood_set.h"

#include <algorithm>

#include "src/common/check.h"

namespace totoro {

NeighborhoodSet::NeighborhoodSet(NodeId self, int capacity)
    : self_(self), capacity_(static_cast<size_t>(capacity)) {
  CHECK_GT(capacity, 0);
  entries_.reserve(capacity_);  // The set's only allocation; Consider never exceeds it.
}

bool NeighborhoodSet::Consider(const RouteEntry& entry) {
  if (entry.id == self_) {
    return false;
  }
  for (auto& e : entries_) {
    if (e.id == entry.id) {
      if (e.proximity_ms != entry.proximity_ms || e.host != entry.host) {
        e = entry;
        std::sort(entries_.begin(), entries_.end(),
                  [](const RouteEntry& a, const RouteEntry& b) {
                    return a.proximity_ms < b.proximity_ms;
                  });
        return true;
      }
      return false;
    }
  }
  auto it = std::lower_bound(entries_.begin(), entries_.end(), entry,
                             [](const RouteEntry& a, const RouteEntry& b) {
                               return a.proximity_ms < b.proximity_ms;
                             });
  const size_t pos = static_cast<size_t>(it - entries_.begin());
  if (entries_.size() >= capacity_) {
    if (pos == entries_.size()) {
      return false;
    }
    entries_.pop_back();  // Evict first, so the vector never outgrows its reservation.
  }
  entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(pos), entry);
  return true;
}

bool NeighborhoodSet::Remove(NodeId id) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->id == id) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace totoro
