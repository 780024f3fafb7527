// DHT identifier aliases and helpers.
//
// Pastry node and key identifiers are points in the circular 2^128 space. Digit-level
// operations (base 2^b) live on U128 itself; this header adds id-generation helpers.
#ifndef SRC_DHT_NODE_ID_H_
#define SRC_DHT_NODE_ID_H_

#include <string_view>

#include "src/common/rng.h"
#include "src/common/sha1.h"
#include "src/common/u128.h"

namespace totoro {

using NodeId = U128;

// Uniformly random node id: the first draw is the low word, the second the high word.
// The draws sit in named locals because C++ leaves the evaluation order of function
// arguments unspecified (GCC goes right to left, clang left to right).
inline NodeId RandomNodeId(Rng& rng) {
  const uint64_t lo = rng.Next();
  const uint64_t hi = rng.Next();
  return NodeId(hi, lo);
}

// Application id per the paper's §4.3: SHA-1 of the application's textual name, the
// creator's public key, and a salt, truncated to the 128-bit ring.
inline NodeId MakeAppId(std::string_view app_name, std::string_view creator_key,
                        std::string_view salt) {
  std::string material;
  material.reserve(app_name.size() + creator_key.size() + salt.size() + 2);
  material.append(app_name);
  material.push_back('|');
  material.append(creator_key);
  material.push_back('|');
  material.append(salt);
  return Sha1To128(material);
}

}  // namespace totoro

#endif  // SRC_DHT_NODE_ID_H_
