#include "src/dht/routing_table.h"

#include "src/common/check.h"

namespace totoro {

RoutingTable::RoutingTable(NodeId self, int bits_per_digit) : self_(self), bits_(bits_per_digit) {
  CHECK_GE(bits_, 1);
  CHECK_LE(bits_, 7);
  CHECK_EQ(128 % bits_ == 0 ? 0 : 128 % bits_, 128 % bits_);  // Digits need not divide 128
  inline_offset_.fill(-1);
  row_offset_.assign(static_cast<size_t>(digits()), -1);
}

RouteEntry* RoutingTable::MaterializeRow(int row) {
  if (RouteEntry* slots = RowSlots(row); slots != nullptr) {
    return slots;
  }
  // Grow by exactly one row; resize alone may double the capacity, leaving a 4-row
  // table with 64 slots and a 5-row one with 128.
  const size_t off = arena_.size();
  arena_.reserve(off + static_cast<size_t>(columns()));
  arena_.resize(off + static_cast<size_t>(columns()));
  row_offset_[static_cast<size_t>(row)] = static_cast<int32_t>(off);
  if (row < kInlineRows) {
    inline_offset_[static_cast<size_t>(row)] = static_cast<int32_t>(off);
  }
  return arena_.data() + off;
}

bool RoutingTable::Consider(const RouteEntry& entry) {
  CHECK_NE(entry.host, kInvalidHost);  // It would read as an empty slot.
  if (entry.id == self_) {
    return false;
  }
  const int row = self_.CommonPrefixDigits(entry.id, bits_);
  if (row >= digits()) {
    return false;  // Identical id.
  }
  const uint32_t col = entry.id.Digit(row, bits_);
  DCHECK(col != self_.Digit(row, bits_));
  RouteEntry& slot = MaterializeRow(row)[col];
  if (!Occupied(slot)) {
    slot = entry;
    return true;
  }
  if (slot.id == entry.id) {
    // Refresh host/proximity.
    if (slot.host != entry.host || slot.proximity_ms != entry.proximity_ms) {
      slot = entry;
      return true;
    }
    return false;
  }
  // Prefer the physically closer candidate (Pastry locality heuristic).
  if (entry.proximity_ms < slot.proximity_ms) {
    slot = entry;
    return true;
  }
  return false;
}

bool RoutingTable::Remove(NodeId id) {
  const int row = self_.CommonPrefixDigits(id, bits_);
  if (row >= digits()) {
    return false;
  }
  RouteEntry* slots = RowSlots(row);
  if (slots == nullptr) {
    return false;
  }
  RouteEntry& slot = slots[id.Digit(row, bits_)];
  if (Occupied(slot) && slot.id == id) {
    slot = RouteEntry{};
    return true;
  }
  return false;
}

std::optional<RouteEntry> RoutingTable::Get(int row, uint32_t col) const {
  CHECK_GE(row, 0);
  CHECK_LT(row, digits());
  CHECK_LT(col, static_cast<uint32_t>(columns()));
  const RouteEntry* slots = RowSlots(row);
  if (slots == nullptr || !Occupied(slots[col])) {
    return std::nullopt;
  }
  return slots[col];
}

std::optional<RouteEntry> RoutingTable::NextHop(const NodeId& key) const {
  const RouteEntry* hop = NextHopPtr(key);
  return hop != nullptr ? std::optional<RouteEntry>(*hop) : std::nullopt;
}

const RouteEntry* RoutingTable::NextHopPtr(const NodeId& key) const {
  const int row = self_.CommonPrefixDigits(key, bits_);
  if (row >= digits()) {
    return nullptr;  // key == self.
  }
  const RouteEntry* slots = RowSlots(row);
  if (slots == nullptr) {
    return nullptr;
  }
  const RouteEntry& slot = slots[key.Digit(row, bits_)];
  return Occupied(slot) ? &slot : nullptr;
}

std::optional<RouteEntry> RoutingTable::CloserFallback(const NodeId& key,
                                                       AliveFn alive) const {
  const int self_prefix = self_.CommonPrefixDigits(key, bits_);
  const U128 self_dist = U128::RingDistance(self_, key);
  std::optional<RouteEntry> best;
  U128 best_dist = self_dist;
  // Rows below self_prefix hold shorter shared prefixes than we already have.
  for (int row = self_prefix; row < digits(); ++row) {
    const RouteEntry* slots = RowSlots(row);
    if (slots == nullptr) {
      continue;
    }
    for (int col = 0; col < columns(); ++col) {
      const RouteEntry& slot = slots[col];
      if (!Occupied(slot)) {
        continue;
      }
      if (alive && !alive(slot)) {
        continue;
      }
      if (slot.id.CommonPrefixDigits(key, bits_) < self_prefix) {
        continue;
      }
      const U128 d = U128::RingDistance(slot.id, key);
      if (d < best_dist) {
        best_dist = d;
        best = slot;
      }
    }
  }
  return best;
}

size_t RoutingTable::NumEntries() const {
  size_t n = 0;
  for (const RouteEntry& slot : arena_) {
    if (Occupied(slot)) {
      ++n;
    }
  }
  return n;
}

size_t RoutingTable::NumRows() const {
  size_t n = 0;
  for (const int32_t off : row_offset_) {
    if (off >= 0) {
      ++n;
    }
  }
  return n;
}

void RoutingTable::ForEach(const std::function<void(const RouteEntry&)>& fn) const {
  // Row-major order (matching iteration before the arena layout): rows may have been
  // materialized out of order, so walk via the offset table.
  for (int row = 0; row < digits(); ++row) {
    const RouteEntry* slots = RowSlots(row);
    if (slots == nullptr) {
      continue;
    }
    for (int col = 0; col < columns(); ++col) {
      if (Occupied(slots[col])) {
        fn(slots[col]);
      }
    }
  }
}

std::vector<RouteEntry> RoutingTable::Row(int row) const {
  std::vector<RouteEntry> out;
  if (row < 0 || row >= digits()) {
    return out;
  }
  const RouteEntry* slots = RowSlots(row);
  if (slots == nullptr) {
    return out;
  }
  for (int col = 0; col < columns(); ++col) {
    if (Occupied(slots[col])) {
      out.push_back(slots[col]);
    }
  }
  return out;
}

}  // namespace totoro
