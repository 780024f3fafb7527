#include "src/dht/routing_table.h"

#include <algorithm>

#include "src/common/check.h"

namespace totoro {
namespace {

// Calls fn(slot) for each set bit of `words`, in ascending slot order.
template <typename Fn>
void ForEachSetBit(const std::vector<uint64_t>& words, Fn&& fn) {
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      fn(static_cast<uint32_t>(w * 64) + static_cast<uint32_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

RoutingTable::RoutingTable(NodeId self, int bits_per_digit)
    : self_(self), bits_(static_cast<uint8_t>(bits_per_digit)) {
  CHECK_GE(bits_per_digit, 1);
  CHECK_LE(bits_per_digit, 7);
}

bool RoutingTable::Contest(RouteEntry& holder, const RouteEntry& entry, double proximity_ms,
                           ProximityFn proximity) {
  const bool wins = holder.id == entry.id ? holder.host != entry.host
                                          : proximity_ms < proximity(holder.host);
  if (wins) {
    holder = entry;
  }
  return wins;
}

void RoutingTable::SetOccupied(uint32_t slot, bool occupied) {
  const size_t w = slot / 64;
  if (w >= kInlineWords && high_words_ == nullptr) {
    high_words_ = std::make_unique<uint64_t[]>(NumWords() - kInlineWords);
  }
  uint64_t& word = w < kInlineWords ? inline_words_[w] : high_words_[w - kInlineWords];
  const uint64_t bit = uint64_t{1} << (slot % 64);
  word = occupied ? word | bit : word & ~bit;
}

void RoutingTable::Insert(size_t index, const RouteEntry& entry) {
  auto grown = std::make_unique<RouteEntry[]>(size_ + 1u);
  std::copy(entries_.get(), entries_.get() + index, grown.get());
  grown[index] = entry;
  std::copy(entries_.get() + index, entries_.get() + size_, grown.get() + index + 1);
  entries_ = std::move(grown);
  ++size_;
}

void RoutingTable::Erase(size_t index) {
  auto shrunk = size_ == 1 ? nullptr : std::make_unique<RouteEntry[]>(size_ - 1u);
  std::copy(entries_.get(), entries_.get() + index, shrunk.get());
  std::copy(entries_.get() + index + 1, entries_.get() + size_, shrunk.get() + index);
  entries_ = std::move(shrunk);
  --size_;
}

bool RoutingTable::Consider(const RouteEntry& entry, double proximity_ms,
                            ProximityFn proximity) {
  CHECK_NE(entry.host, kInvalidHost);  // An entry must say where to send.
  const uint32_t slot = SlotOf(self_, bits_, entry.id);
  if (slot == kNoSlot) {
    return false;
  }
  const size_t index = Rank(slot);
  if (Occupied(slot)) {
    return Contest(entries_[index], entry, proximity_ms, proximity);
  }
  Insert(index, entry);
  SetOccupied(slot, true);
  rows_ = rows_ | (U128(1) << static_cast<int>(slot >> bits_));
  return true;
}

bool RoutingTable::Remove(NodeId id) {
  const uint32_t slot = SlotOf(self_, bits_, id);
  if (slot == kNoSlot || !Occupied(slot)) {
    return false;
  }
  const size_t index = Rank(slot);
  if (entries_[index].id != id) {
    return false;
  }
  Erase(index);
  SetOccupied(slot, false);
  return true;
}

std::optional<RouteEntry> RoutingTable::Get(int row, uint32_t col) const {
  CHECK_GE(row, 0);
  CHECK_LT(row, digits());
  CHECK_LT(col, static_cast<uint32_t>(columns()));
  const uint32_t slot = (static_cast<uint32_t>(row) << bits_) | col;
  if (!Occupied(slot)) {
    return std::nullopt;
  }
  return entries_[Rank(slot)];
}

std::optional<RouteEntry> RoutingTable::NextHop(const NodeId& key) const {
  const RouteEntry* hop = NextHopPtr(key);
  return hop != nullptr ? std::optional<RouteEntry>(*hop) : std::nullopt;
}

std::optional<RouteEntry> RoutingTable::CloserFallback(const NodeId& key,
                                                       AliveFn alive) const {
  const int self_prefix = self_.CommonPrefixDigits(key, bits_);
  std::optional<RouteEntry> best;
  U128 best_dist = U128::RingDistance(self_, key);
  // Rows below self_prefix hold shorter shared prefixes than we already have.
  for (size_t i = RowBegin(self_prefix); i < size_; ++i) {
    const RouteEntry& entry = entries_[i];
    if (alive && !alive(entry)) {
      continue;
    }
    if (entry.id.CommonPrefixDigits(key, bits_) < self_prefix) {
      continue;
    }
    const U128 d = U128::RingDistance(entry.id, key);
    if (d < best_dist) {
      best_dist = d;
      best = entry;
    }
  }
  return best;
}

void RoutingTable::ForEach(const std::function<void(const RouteEntry&)>& fn) const {
  std::for_each(entries_.get(), entries_.get() + size_, fn);
}

std::vector<RouteEntry> RoutingTable::Row(int row) const {
  if (row < 0 || row >= digits()) {
    return {};
  }
  return std::vector<RouteEntry>(entries_.get() + RowBegin(row),
                                 entries_.get() + RowBegin(row + 1));
}

void RoutingTable::DenseRows::Load(const RoutingTable& table) {
  self_ = table.self_;
  bits_ = table.bits_;
  rows_ = table.rows_;
  const size_t num_words = table.NumWords();
  slots_.resize(num_words * 64);
  occupied_.resize(num_words);
  for (size_t w = 0; w < num_words; ++w) {
    occupied_[w] = table.Word(w);
  }
  size_t index = 0;
  ForEachSetBit(occupied_, [&](uint32_t slot) { slots_[slot] = table.entries_[index++]; });
}

bool RoutingTable::DenseRows::Consider(const RouteEntry& entry, double proximity_ms,
                                       ProximityFn proximity) {
  CHECK_NE(entry.host, kInvalidHost);
  const uint32_t slot = SlotOf(self_, bits_, entry.id);
  if (slot == kNoSlot) {
    return false;
  }
  uint64_t& word = occupied_[slot / 64];
  const uint64_t bit = uint64_t{1} << (slot % 64);
  if ((word & bit) != 0) {
    return Contest(slots_[slot], entry, proximity_ms, proximity);
  }
  word |= bit;
  slots_[slot] = entry;
  rows_ = rows_ | (U128(1) << static_cast<int>(slot >> bits_));
  return true;
}

void RoutingTable::Assign(const DenseRows& dense) {
  CHECK(dense.self_ == self_ && dense.bits_ == bits_);
  size_t count = 0;
  ForEachSetBit(dense.occupied_, [&count](uint32_t) { ++count; });
  entries_ = count == 0 ? nullptr : std::make_unique<RouteEntry[]>(count);
  size_ = 0;
  inline_words_ = {};
  high_words_.reset();
  ForEachSetBit(dense.occupied_, [&](uint32_t slot) {
    entries_[size_++] = dense.slots_[slot];
    SetOccupied(slot, true);
  });
  rows_ = dense.rows_;
}

}  // namespace totoro
