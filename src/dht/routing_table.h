// Pastry routing table: rows indexed by shared-prefix length, columns by next digit.
//
// Row r holds entries whose ids share exactly r leading base-2^b digits with the local
// id; the column is the (r+1)-th digit. With N nodes roughly ceil(log_{2^b} N) rows are
// populated, giving the O(log N) routing bound. Rows are materialized lazily so that a
// 100k-node simulation does not pay for 128/b empty rows per node. When two candidates
// compete for a slot the physically closer one (lower proximity) wins, which is how
// Pastry builds locality into its routes.
#ifndef SRC_DHT_ROUTING_TABLE_H_
#define SRC_DHT_ROUTING_TABLE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/prefetch.h"
#include "src/dht/node_id.h"
#include "src/sim/message.h"

namespace totoro {

struct RouteEntry {
  NodeId id;
  HostId host = kInvalidHost;
  double proximity_ms = 0.0;
};

// Non-owning liveness predicate: a plain function pointer plus untyped context, cheap
// enough to build and invoke on the per-hop routing path (a std::function here cost a
// measurable slice of route time in indirect-call overhead). Default-constructed means
// "no filtering".
struct AliveFn {
  using Thunk = bool (*)(const void* ctx, const RouteEntry& entry);
  Thunk fn = nullptr;
  const void* ctx = nullptr;

  explicit operator bool() const { return fn != nullptr; }
  bool operator()(const RouteEntry& entry) const { return fn(ctx, entry); }
};

class RoutingTable {
 public:
  RoutingTable(NodeId self, int bits_per_digit);

  int bits_per_digit() const { return bits_; }
  int digits() const { return 128 / bits_; }
  int columns() const { return 1 << bits_; }
  const NodeId& self() const { return self_; }

  // Offers a candidate, which must name a host (not kInvalidHost). Returns true if the
  // table changed. Candidates equal to self or sharing all digits with self are ignored.
  bool Consider(const RouteEntry& entry);

  // Removes a node (e.g. detected failure) from every slot it occupies.
  bool Remove(NodeId id);

  std::optional<RouteEntry> Get(int row, uint32_t col) const;

  // Routing-table step of Pastry routing: the entry at row = shared prefix digits of
  // (self, key), column = key's next digit. Empty if no such entry is known.
  std::optional<RouteEntry> NextHop(const NodeId& key) const;
  // Copy-free variant for the per-hop path; the pointer is invalidated by any mutation
  // of the table.
  const RouteEntry* NextHopPtr(const NodeId& key) const;
  // Hints the slot NextHopPtr(key) would read (see prefetch.h) — issued before the
  // leaf-set scan so the two lookups' cache misses overlap.
  void PrefetchNextHop(const NodeId& key) const {
    const int row = self_.CommonPrefixDigits(key, bits_);
    if (row >= digits()) {
      return;
    }
    if (const RouteEntry* slots = RowSlots(row); slots != nullptr) {
      const RouteEntry* slot = slots + key.Digit(row, bits_);
      // The arena is only 16-byte aligned, so a 32-byte slot can straddle two cache
      // lines; hint both.
      PrefetchRead(slot);
      PrefetchRead(reinterpret_cast<const char*>(slot) + sizeof(*slot) - 1);
    }
  }

  // Any known node strictly numerically closer to `key` than self whose shared prefix
  // with key is at least as long — Pastry's rare "fallback" case. Entries failing the
  // optional `alive` predicate are skipped.
  std::optional<RouteEntry> CloserFallback(const NodeId& key, AliveFn alive = {}) const;

  size_t NumEntries() const;
  size_t NumRows() const;
  void ForEach(const std::function<void(const RouteEntry&)>& fn) const;

  // Entries of row `row` (for join-protocol state transfer).
  std::vector<RouteEntry> Row(int row) const;

 private:
  // With N nodes only ~log_{2^b} N rows are ever consulted, so the offsets of the
  // first kInlineRows rows are mirrored into a fixed member array. The array lives in
  // the owning node's leading cache lines (which the delivery path prefetches), making
  // the per-hop offset read a warm load instead of a dependent DRAM miss that would
  // stall before the slot prefetch can even issue.
  static constexpr int kInlineRows = 8;

  // Slots of row r live at arena_[offset .. offset + columns()), or nowhere when the
  // offset is < 0 (unmaterialized). One arena allocation for all materialized rows
  // keeps the per-hop NextHop lookup to a single indexed load instead of a per-row
  // vector chase; rows are never unmaterialized, so offsets are stable. The arena holds
  // exactly the materialized rows, so materializing one reallocates it: a slot pointer
  // does not survive Consider.
  int32_t RowOffset(int row) const {
    return row < kInlineRows ? inline_offset_[static_cast<size_t>(row)]
                             : row_offset_[static_cast<size_t>(row)];
  }
  RouteEntry* RowSlots(int row) {
    const int32_t off = RowOffset(row);
    return off < 0 ? nullptr : arena_.data() + off;
  }
  const RouteEntry* RowSlots(int row) const {
    const int32_t off = RowOffset(row);
    return off < 0 ? nullptr : arena_.data() + off;
  }
  RouteEntry* MaterializeRow(int row);

  // A slot is a bare 32-byte RouteEntry; an empty one holds RouteEntry{}, whose host is
  // kInvalidHost (Consider rejects such candidates).
  static bool Occupied(const RouteEntry& slot) { return slot.host != kInvalidHost; }

  NodeId self_;
  int bits_;
  std::array<int32_t, kInlineRows> inline_offset_;  // Mirror of row_offset_[0..kInlineRows).
  std::vector<int32_t> row_offset_;  // digits() entries; -1 = row not materialized.
  std::vector<RouteEntry> arena_;
};

}  // namespace totoro

#endif  // SRC_DHT_ROUTING_TABLE_H_
