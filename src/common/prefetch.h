// Software prefetch hint for hot paths that chase pointers into cold, randomly
// indexed state (per-host tables in a 10k+ node simulation are effectively always
// DRAM-resident). Issuing the load hint as soon as the address is computable lets the
// miss overlap with the independent work in between; a wrong or useless hint costs one
// instruction.
#ifndef SRC_COMMON_PREFETCH_H_
#define SRC_COMMON_PREFETCH_H_

#include <cstddef>
#include <cstdint>

namespace totoro {

inline void PrefetchRead(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

// Hints every cache line that [addr, addr + bytes) touches.
inline void PrefetchReadRange(const void* addr, size_t bytes) {
  const uintptr_t begin = reinterpret_cast<uintptr_t>(addr);
  for (uintptr_t line = begin & ~uintptr_t{63}; line < begin + bytes; line += 64) {
    PrefetchRead(reinterpret_cast<const void*>(line));
  }
}

}  // namespace totoro

#endif  // SRC_COMMON_PREFETCH_H_
