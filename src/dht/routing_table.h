// Pastry routing table: rows indexed by shared-prefix length, columns by next digit.
//
// Row r holds entries whose ids share exactly r leading base-2^b digits with the local
// id; the column is the (r+1)-th digit. With N nodes roughly ceil(log_{2^b} N) rows are
// populated, giving the O(log N) routing bound. When two candidates compete for a slot
// the physically closer one (lower proximity) wins, which is how Pastry builds locality
// into its routes.
//
// Rows are packed: slot (r, c) is bit r * 2^b + c of an occupancy bitmap, and the
// occupied slots' entries sit in slot order in one exact-size allocation, so a slot's
// entry is at the popcount of the bitmap below it. The bitmap's first 128 bits (rows
// 0-7 at b = 4) live in the table, so a lookup reads the node's warm lines, then the
// entry.
#ifndef SRC_DHT_ROUTING_TABLE_H_
#define SRC_DHT_ROUTING_TABLE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/prefetch.h"
#include "src/dht/node_id.h"
#include "src/sim/message.h"

namespace totoro {

// A known overlay node. It carries no proximity: that is a pure function of the two
// hosts (LatencyModel is deterministic), recomputed where a comparison needs it.
struct RouteEntry {
  NodeId id;
  HostId host = kInvalidHost;
};

// Non-owning callable: a plain function pointer plus untyped context, cheap enough to
// build and invoke on the per-hop routing path (a std::function here cost a measurable
// slice of route time in indirect-call overhead).
template <typename R, typename Arg>
struct FnRef {
  using Thunk = R (*)(const void* ctx, Arg arg);
  Thunk fn = nullptr;
  const void* ctx = nullptr;

  explicit operator bool() const { return fn != nullptr; }
  R operator()(Arg arg) const { return fn(ctx, arg); }
};
// Liveness predicate; default-constructed means "no filtering".
using AliveFn = FnRef<bool, const RouteEntry&>;
// The table owner's proximity (latency, ms) to a host.
using ProximityFn = FnRef<double, HostId>;

class RoutingTable {
 public:
  RoutingTable(NodeId self, int bits_per_digit);

  int digits() const { return 128 / bits_; }
  int columns() const { return 1 << bits_; }
  const NodeId& self() const { return self_; }

  // Offers a candidate at `proximity_ms` from the owner; it must name a host (not
  // kInvalidHost). Returns true if the table changed. An empty slot takes it; the
  // holder of a full one yields to itself at a new host, or to a strictly closer node
  // (`proximity` gives the holder's). Ids sharing every digit with self are ignored.
  bool Consider(const RouteEntry& entry, double proximity_ms, ProximityFn proximity);

  // Removes a node (e.g. detected failure) from every slot it occupies.
  bool Remove(NodeId id);

  std::optional<RouteEntry> Get(int row, uint32_t col) const;

  // Routing-table step of Pastry routing: the entry at row = shared prefix digits of
  // (self, key), column = key's next digit. Empty if no such entry is known.
  std::optional<RouteEntry> NextHop(const NodeId& key) const;
  // Copy-free variant for the per-hop path; the pointer is invalidated by any mutation
  // of the table.
  const RouteEntry* NextHopPtr(const NodeId& key) const {
    const uint32_t slot = SlotOf(self_, bits_, key);
    return slot != kNoSlot && Occupied(slot) ? entries_.get() + Rank(slot) : nullptr;
  }
  // Hints the entry NextHopPtr(key) would read (see prefetch.h). ForwardOrDeliver calls
  // it before the leaf-set scan so the two lookups' cache misses overlap.
  void PrefetchNextHop(const NodeId& key) const {
    if (const RouteEntry* entry = NextHopPtr(key); entry != nullptr) {
      PrefetchReadRange(entry, sizeof(*entry));  // A 24-byte entry can straddle two lines.
    }
  }

  // Any known node strictly numerically closer to `key` than self whose shared prefix
  // with key is at least as long — Pastry's rare "fallback" case. Entries failing the
  // optional `alive` predicate are skipped.
  std::optional<RouteEntry> CloserFallback(const NodeId& key, AliveFn alive = {}) const;

  size_t NumEntries() const { return size_; }
  // Rows that ever held an entry.
  size_t NumRows() const {
    return static_cast<size_t>(std::popcount(rows_.hi()) + std::popcount(rows_.lo()));
  }
  // Row-major, columns ascending.
  void ForEach(const std::function<void(const RouteEntry&)>& fn) const;

  // Entries of row `row` (for join-protocol state transfer).
  std::vector<RouteEntry> Row(int row) const;

  // Every slot of one table, unpacked, for building tables in bulk (BuildOracle):
  // offers land in place, and Assign packs them into the table once.
  class DenseRows {
   public:
    // Starts over from `table`'s contents.
    void Load(const RoutingTable& table);
    // RoutingTable::Consider, on the dense rows.
    bool Consider(const RouteEntry& entry, double proximity_ms, ProximityFn proximity);

   private:
    friend class RoutingTable;
    NodeId self_;
    int bits_ = 0;
    U128 rows_;
    std::vector<uint64_t> occupied_;  // One bit per slot.
    std::vector<RouteEntry> slots_;   // Meaningful where occupied_ is set.
  };
  // Replaces the contents with `dense`, which must have been loaded from this table.
  void Assign(const DenseRows& dense);

 private:
  static constexpr uint32_t kNoSlot = ~0u;
  static constexpr uint32_t kInlineWords = 2;  // Bitmap words held in the table.

  // The slot `id` takes in `self`'s table; kNoSlot if it shares every digit with self.
  static uint32_t SlotOf(const NodeId& self, int bits, const NodeId& id) {
    const int row = self.CommonPrefixDigits(id, bits);
    if (row >= 128 / bits) {
      return kNoSlot;
    }
    return (static_cast<uint32_t>(row) << bits) | id.Digit(row, bits);
  }
  // Settles a candidate's claim on an occupied slot (see Consider).
  static bool Contest(RouteEntry& holder, const RouteEntry& entry, double proximity_ms,
                      ProximityFn proximity);

  size_t NumWords() const { return ((static_cast<size_t>(digits()) << bits_) + 63) / 64; }
  uint64_t Word(size_t w) const {
    return w < kInlineWords ? inline_words_[w]
                            : (high_words_ != nullptr ? high_words_[w - kInlineWords] : 0);
  }
  bool Occupied(uint32_t slot) const { return ((Word(slot / 64) >> (slot % 64)) & 1) != 0; }
  // Occupied slots before `slot`: the index of its entry, or where it would go.
  size_t Rank(uint32_t slot) const {
    const size_t word = slot / 64;
    int rank = std::popcount(Word(word) & ((uint64_t{1} << (slot % 64)) - 1));
    for (size_t w = 0; w < word; ++w) {
      rank += std::popcount(Word(w));
    }
    return static_cast<size_t>(rank);
  }
  // Index of the first entry at or after row `row` (NumEntries() past the last row).
  size_t RowBegin(int row) const {
    return row >= digits() ? size_ : Rank(static_cast<uint32_t>(row) << bits_);
  }
  void SetOccupied(uint32_t slot, bool occupied);
  // Rebuilds the entry allocation at size_ + 1 with `entry` at `index`, or at size_ - 1
  // without the entry at `index` (exact size either way).
  void Insert(size_t index, const RouteEntry& entry);
  void Erase(size_t index);

  NodeId self_;
  std::array<uint64_t, kInlineWords> inline_words_{};
  U128 rows_;  // Bit r: row r has held an entry.
  std::unique_ptr<RouteEntry[]> entries_;
  std::unique_ptr<uint64_t[]> high_words_;  // Bitmap words past the inline ones, on demand.
  uint16_t size_ = 0;
  uint8_t bits_;
};

}  // namespace totoro

#endif  // SRC_DHT_ROUTING_TABLE_H_
