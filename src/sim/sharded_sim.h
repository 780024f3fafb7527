// ShardedSimulator(K) is Simulator(K): one engine serves every shard count (see
// simulator.h). The alias serves call sites that spell the shard count out.
#ifndef SRC_SIM_SHARDED_SIM_H_
#define SRC_SIM_SHARDED_SIM_H_

#include "src/sim/simulator.h"

namespace totoro {

using ShardedSimulator = Simulator;

}  // namespace totoro

#endif  // SRC_SIM_SHARDED_SIM_H_
