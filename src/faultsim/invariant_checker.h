// Protocol-invariant checking attachable to any run.
//
// Two classes of invariants:
//
//  Safety (checked every 500 virtual ms, fault or no fault):
//   - No node is its own tree parent (self-loop).
//   - No aggregation round double-counts: the root total's contribution count never
//     exceeds the topic's subscriber high-water mark (event-driven via the Scribe
//     aggregate-audit hook, so every root aggregate is checked, not just sampled).
//
//  Eventual / convergence (checked only when the run has been quiet — no fault for
//  `convergence_grace_ms` and no active partition — because mid-repair trees and
//  mid-partition rings legitimately violate them transiently):
//   - Every live node's leaf set contains its true ring successor and predecessor
//     (requires keep-alives; skipped otherwise).
//   - Every watched Scribe tree is acyclic, has exactly one live root, that root is the
//     topic's rendezvous node, and every live subscriber reaches it (connectivity).
//
// Violations are recorded with their virtual time and exported through the obs
// registry (`faultsim.invariant.checks` / `faultsim.invariant.violations`), so a test
// asserts `checker.violations().empty()` and a bench exports the counters.
#ifndef SRC_FAULTSIM_INVARIANT_CHECKER_H_
#define SRC_FAULTSIM_INVARIANT_CHECKER_H_

#include <string>
#include <vector>

#include "src/faultsim/fault_injector.h"
#include "src/pubsub/forest.h"

namespace totoro {

struct InvariantCheckerConfig {
  double convergence_grace_ms = 2000.0; // Quiet time before eventual checks apply.
};

struct InvariantViolation {
  SimTime at = 0.0;
  std::string invariant;  // e.g. "tree.acyclic", "leafset.ring_neighbor".
  std::string detail;
};

class InvariantChecker {
 public:
  InvariantChecker(PastryNetwork* pastry, Forest* forest,
                   InvariantCheckerConfig config = {});
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Registers a topic whose tree/aggregation invariants are checked. Installs the
  // forest's aggregate-audit hook the first time a topic is watched.
  void WatchTopic(const NodeId& topic);

  // Ground truth source for "is the run quiet" gating; optional (without it eventual
  // checks apply whenever the checker runs).
  void SetFaultInjector(const FaultInjector* injector) { injector_ = injector; }

  // Periodic checking through the event queue; Stop() cancels the pending tick.
  void Start();
  void Stop();

  // Runs the safety checks immediately.
  void CheckNow();
  // Runs the eventual checks immediately (caller asserts the run has converged).
  void CheckConverged();

  const std::vector<InvariantViolation>& violations() const { return violations_; }
  uint64_t checks_run() const { return checks_run_; }

 private:
  void Tick();
  void Violate(const char* invariant, std::string detail);
  void CheckSafetyTree(const NodeId& topic);
  void CheckConvergedTree(const NodeId& topic);
  void CheckLeafSets();
  void OnRootAggregate(const NodeId& topic, uint64_t round, uint64_t count);
  // Refreshes the per-topic subscriber high-water marks used by the aggregate audit.
  void UpdateSubscriberHighWater();

  PastryNetwork* pastry_;
  Forest* forest_;
  InvariantCheckerConfig config_;
  const FaultInjector* injector_ = nullptr;
  std::vector<NodeId> topics_;
  std::vector<uint64_t> max_subscribers_;  // Parallel to topics_.
  std::vector<InvariantViolation> violations_;
  uint64_t checks_run_ = 0;
  bool running_ = false;
  bool audit_installed_ = false;
  EventHandle pending_;
};

}  // namespace totoro

#endif  // SRC_FAULTSIM_INVARIANT_CHECKER_H_
