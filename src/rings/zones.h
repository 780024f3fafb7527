// Zone-prefixed identifiers for the locality-aware multi-ring structure (§4.2).
//
// Totoro divides the single Pastry ring into m = 2^zone_bits smaller rings ("edge
// zones"). A NodeId carries its zone in the top zone_bits bits and a per-zone suffix in
// the remaining bits: D = P * 2^n + S. Because prefix routing resolves the most
// significant digits first, a zone-prefixed key's route converges inside the key's zone,
// which is what enables administrative isolation at zone boundaries.
#ifndef SRC_RINGS_ZONES_H_
#define SRC_RINGS_ZONES_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/dht/node_id.h"

namespace totoro {

using ZoneId = uint32_t;

// Builds a node id with zone prefix `zone` (zone_bits wide) and the given 128-zone_bits
// bit suffix (top bits of `suffix` beyond the suffix width are discarded).
inline NodeId MakeZonedId(ZoneId zone, const U128& suffix, int zone_bits) {
  const U128 prefix = U128(0, zone) << (128 - zone_bits);
  const U128 mask = (U128(0, 1) << (128 - zone_bits)) - U128(0, 1);
  return prefix | (suffix & mask);
}

// The suffix's low word is the first draw and its high word the second, drawn into
// locals because function arguments are evaluated in an unspecified order.
inline NodeId RandomZonedId(ZoneId zone, int zone_bits, Rng& rng) {
  const uint64_t lo = rng.Next();
  const uint64_t hi = rng.Next();
  return MakeZonedId(zone, U128(hi, lo), zone_bits);
}

// Extracts the zone prefix of an id.
inline ZoneId ZoneOf(const NodeId& id, int zone_bits) {
  return static_cast<ZoneId>((id >> (128 - zone_bits)).lo());
}

// True if `id` belongs to `zone`.
inline bool InZone(const NodeId& id, ZoneId zone, int zone_bits) {
  return ZoneOf(id, zone_bits) == zone;
}

}  // namespace totoro

#endif  // SRC_RINGS_ZONES_H_
