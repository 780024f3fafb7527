// Thread -> accounting-slot index for sharded simulation.
//
// A few accounting structures (NetworkMetrics' global totals) are written from every
// shard worker on the hot message path. Instead of atomics, each thread owns a private
// lane indexed by this slot: 0 on the main/coordinator thread (also the only slot that
// exists in single-threaded mode), 1 + shard index on shard worker threads.
// A K>1 Simulator assigns the slot once at worker-thread start; readers fold all lanes
// under the coordinator's barrier (workers parked), so folds need no synchronization
// beyond the barrier's happens-before.
#ifndef SRC_SIM_SHARD_SLOT_H_
#define SRC_SIM_SHARD_SLOT_H_

#include <cstddef>

namespace totoro {
namespace internal {

inline size_t& ThreadShardSlot() {
  // LINT: thread-confined the slot index IS the thread->lane binding; never shared.
  static thread_local size_t slot = 0;
  return slot;
}

}  // namespace internal
}  // namespace totoro

#endif  // SRC_SIM_SHARD_SLOT_H_
