// The benchmark's workloads. Each entry performs one repetition (see harness.h).
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstddef>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

// Random-key lookups over a 100k-node overlay, on the plain engine (`sim_shards` 1) or
// on ShardedSimulator(sim_shards). Both see identical inputs and must agree exactly.
RepResult RunOverlayRoute(const RepOptions& options, size_t sim_shards);
// At least 20 concurrent synchronous apps run to target on Fig 8/9's overlay.
RepResult RunFlMultiapp(const RepOptions& options);
// FL apps under continuous churn, keep-alives, tree repair and master failover.
RepResult RunFlChurn(const RepOptions& options);

struct Workload {
  const char* name;
  size_t sim_shards;
  RepResult (*run)(const RepOptions&);
};

const std::vector<Workload>& AllWorkloads();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
