// Federated aggregation rules (FedAvg / FedProx server side) and the adapter that plugs
// them into the pub/sub tree's CombineFn for in-network partial aggregation.
//
// Both rules reduce to sample-weighted averaging of weight vectors on the server side
// (FedProx changes the *client* objective); the weighted mean is associative, which is
// precisely why Totoro's trees can aggregate hop by hop without changing the result.
#ifndef SRC_FL_AGGREGATION_H_
#define SRC_FL_AGGREGATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/fl/robust.h"
#include "src/pubsub/scribe_node.h"

namespace totoro {

// Sample-weighted average of updates; all vectors must agree in dimension.
std::vector<float> FederatedAverage(const std::vector<WeightedUpdate>& updates);

// The weight payload carried through pub/sub trees.
struct WeightsPayload {
  std::vector<float> weights;
  // Participant ids behind this (partial) aggregate, sorted and unique. Leaves set
  // their own id; the secure-sum combiner merges them so the root knows the survivor
  // set and can run dropout correction. Empty for apps that never read it (FedAvg).
  std::vector<uint64_t> contributors;
};

// CombineFn performing weighted averaging on WeightsPayload pieces. Used as the
// application-supplied aggregation function of the Totoro API (§4.3: "owners can specify
// different aggregation functions in their trees").
CombineFn MakeFedAvgCombiner();

// The payload carried through pub/sub trees when a *non-associative* robust rule
// (src/fl/robust.h) is active: interior nodes cannot fold a median hop by hop, so they
// concatenate the individual contributions instead and the root applies the reduction
// once over the full list. `ids` and `updates` are parallel arrays kept sorted by id,
// which makes the merged list independent of arrival order (permutation invariance).
struct UpdateListPayload {
  std::vector<uint64_t> ids;
  std::vector<WeightedUpdate> updates;
};

// CombineFn that merges UpdateListPayload pieces by id-sorted concatenation. Installed
// per topic (Forest::SetCombineFnForTopic) exactly like the secure-sum combiner.
// Null-data pieces (unselected workers' acks) are skipped. Duplicate ids are rejected
// with a CHECK — the closed-round guards upstream must prevent double submission.
CombineFn MakeCollectCombiner();

}  // namespace totoro

#endif  // SRC_FL_AGGREGATION_H_
