// Post-heal recovery probe: how long until the tree delivers again?
//
// After a fault clears (partition healed, root rejoined), the forest repairs itself
// through parent-heartbeat timeouts and re-JOINs. MeasureRecovery quantifies that: it
// repeatedly publishes probe broadcasts from the topic's current root and returns the
// virtual time until the first probe that reaches every live subscriber — the paper's
// "first-publish-reaches-all-subscribers" recovery metric. The result is also exported
// as the `faultsim.recovery.post_heal_ms` gauge.
//
// Harness-only: it overwrites the forest's OnBroadcast upcall, so do not call it while
// a TotoroEngine drives the same forest.
#ifndef SRC_FAULTSIM_RECOVERY_H_
#define SRC_FAULTSIM_RECOVERY_H_

#include "src/pubsub/forest.h"

namespace totoro {

// Returns virtual ms until full delivery, or a negative value on timeout.
double MeasureRecovery(Forest* forest, const NodeId& topic);

}  // namespace totoro

#endif  // SRC_FAULTSIM_RECOVERY_H_
