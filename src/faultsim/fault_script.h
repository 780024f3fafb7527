// Scenario-scripted fault timelines (the fault DSL).
//
// A FaultScript is a declarative timeline of typed faults built in code:
//
//   FaultScript script;
//   script.PartitionAt(1000.0, {0, 1, 2}, {3, 4, 5})
//         .HealAt(3000.0)
//         .CrashAt(4000.0, /*host=*/7)
//         .RejoinAt(6000.0, /*host=*/7)
//         .FlapLinkAt(2000.0, /*a=*/1, /*b=*/4, /*burst_ms=*/50, /*gap_ms=*/150, 5);
//
// The script itself is pure data; a FaultInjector executes it through the event queue,
// so a scripted run is bit-identical per seed like every other simulation in the repo.
// Times are relative to the moment the script is handed to FaultInjector::Schedule().
//
// Fault taxonomy (see DESIGN.md "Fault model & invariants"):
//  - Partition/Heal: group-based reachability cuts — every message crossing the cut is
//    dropped until healed. Models a backhaul or inter-site failure.
//  - Crash vs. graceful leave vs. rejoin-with-same-id: crash silences a host abruptly
//    (peers must detect it via keep-alives); graceful leave first detaches the host's
//    Scribe state (LEAVE messages) before taking it down; rejoin brings the same
//    NodeId back through the live join protocol.
//  - Link perturbations: probabilistic drop / duplicate / delay-spike per matched
//    message, scoped by endpoint sets and traffic class. Delay spikes are the
//    reordering lever — a spiked message arrives after later unspiked sends.
//  - Correlated flaps: FlapLinkAt expands to repeated short full-loss windows on one
//    link, the bursty pattern that breaks timeout tuning in practice.
#ifndef SRC_FAULTSIM_FAULT_SCRIPT_H_
#define SRC_FAULTSIM_FAULT_SCRIPT_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/dht/node_id.h"
#include "src/sim/message.h"
#include "src/sim/simulator.h"

namespace totoro {

enum class FaultKind {
  kPartition,      // Cut reachability between group_a and group_b.
  kHeal,           // Remove all active partitions.
  kCrash,          // Abrupt host death (no goodbye).
  kGracefulLeave,  // Scribe-level detach, then host down.
  kRejoin,         // Same-id host comes back and re-joins via the protocol.
  kPerturbBegin,   // Activate a probabilistic link perturbation rule.
  kPerturbEnd,     // Deactivate it (matched by perturb_id).
  kAttackBegin,    // Activate a Byzantine update-poisoning rule on attacker hosts.
  kAttackEnd,      // Deactivate it (matched by perturb_id).
  kSybilJoin,      // Forged memberships: hosts subscribe to a topic they never train.
};

const char* FaultKindName(FaultKind kind);

// How an active attacker rewrites its freshly trained update. `ref` is the round's
// broadcast global weights, `w` the honest local result.
enum class AttackKind {
  kSignFlip,       // w := ref - scale * (w - ref): invert (and amplify) the delta.
  kGaussianNoise,  // w := w + N(0, stddev) per coordinate.
  kGradientScale,  // w := ref + scale * (w - ref): amplify the delta.
};

// A Byzantine attacker rule. While active, every update submitted by a host in
// `attackers` is rewritten via `kind`; sybil joins forge an update from the reference
// alone (their "honest" w is the reference itself, so kGaussianNoise is the natural
// sybil payload). Noise draws derive from (injector seed, host, round), never from
// arrival order, so attacked runs stay bit-identical per seed at any thread count.
struct AttackParams {
  AttackKind kind = AttackKind::kSignFlip;
  std::vector<HostId> attackers;
  double scale = 1.0;          // kSignFlip / kGradientScale amplification.
  double noise_stddev = 0.0;   // kGaussianNoise sigma.
  // > 0: the attacker also lies about its sample weight (weight-inflation component);
  // 0 keeps the honest weight. Robust rules ignore claimed weights for this reason.
  double claimed_weight = 0.0;
};

// A probabilistic per-message rule applied while active. A message matches when its
// traffic class is selected by `class_mask` (0 = all classes) and its endpoints match:
// both endpoint sets non-empty => the message must cross between them (either
// direction); only `endpoints_a` non-empty => either endpoint is in the set; both empty
// => every message matches.
struct LinkPerturbation {
  uint32_t class_mask = 0;  // Bit i selects TrafficClass(i); 0 selects everything.
  std::vector<HostId> endpoints_a;
  std::vector<HostId> endpoints_b;
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double delay_spike_prob = 0.0;
  double delay_spike_ms = 0.0;
};

// One entry on the timeline. Which fields are meaningful depends on `kind`.
struct FaultEvent {
  SimTime at = 0.0;  // Relative to FaultInjector::Schedule().
  FaultKind kind = FaultKind::kPartition;
  std::vector<HostId> group_a;  // kPartition.
  std::vector<HostId> group_b;  // kPartition.
  HostId host = kInvalidHost;   // kCrash / kGracefulLeave / kRejoin.
  LinkPerturbation perturb;     // kPerturbBegin.
  // Matches kPerturbBegin with its kPerturbEnd and kAttackBegin with its kAttackEnd
  // (one id space for both rule families).
  uint64_t perturb_id = 0;
  AttackParams attack;          // kAttackBegin / kSybilJoin.
  NodeId topic;                 // kSybilJoin: the application tree being infiltrated.
};

class FaultScript {
 public:
  FaultScript& PartitionAt(SimTime at, std::vector<HostId> group_a,
                           std::vector<HostId> group_b);
  // Heals every partition active at `at` (partitions in this repo's fault model heal
  // together, modelling the shared backhaul coming back).
  FaultScript& HealAt(SimTime at);
  FaultScript& CrashAt(SimTime at, HostId host);
  FaultScript& GracefulLeaveAt(SimTime at, HostId host);
  FaultScript& RejoinAt(SimTime at, HostId host);
  // Activates `rule` at `at` for `duration_ms` virtual ms.
  FaultScript& PerturbLinksAt(SimTime at, double duration_ms, LinkPerturbation rule);
  // Correlated link flapping between hosts a and b: `bursts` windows of full loss, each
  // `burst_ms` long, separated by `gap_ms` of clean link.
  FaultScript& FlapLinkAt(SimTime at, HostId a, HostId b, double burst_ms, double gap_ms,
                          int bursts);

  // Byzantine attacker windows (each active for `duration_ms` virtual ms).
  // Sign-flip model poisoning: attackers submit ref - scale * (w - ref).
  FaultScript& SignFlipAt(SimTime at, double duration_ms, std::vector<HostId> attackers,
                          double scale = 1.0);
  // Additive gaussian-noise poisoning: attackers submit w + N(0, stddev).
  FaultScript& GaussianNoiseAt(SimTime at, double duration_ms,
                               std::vector<HostId> attackers, double stddev);
  // Gradient-scaling attack: attackers submit ref + scale * (w - ref).
  FaultScript& GradientScaleAt(SimTime at, double duration_ms,
                               std::vector<HostId> attackers, double scale);
  // Generic attacker window (full AttackParams control).
  FaultScript& AttackAt(SimTime at, double duration_ms, AttackParams params);
  // Sybil burst: `sybils` subscribe to `topic` without ever holding training data and,
  // from `at` on, submit forged updates built from the broadcast reference per `params`
  // (a sybil's "honest" update is the reference itself, so kGaussianNoise + optional
  // claimed_weight is the natural payload). Membership persists for the rest of the run.
  FaultScript& SybilJoinAt(SimTime at, const NodeId& topic, std::vector<HostId> sybils,
                           AttackParams params);

  // Events in insertion order. The injector schedules them through the event queue,
  // which fires equal-time events FIFO, so insertion order is execution order for ties.
  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  // Timestamp of the last event (0 for an empty script).
  SimTime EndTime() const;

 private:
  std::vector<FaultEvent> events_;
  uint64_t next_perturb_id_ = 1;
};

// Knobs for random script generation (property tests). All generated faults recover:
// every crash/leave is rejoined and every partition healed before `duration_ms * 0.6`,
// leaving the tail of the run for convergence so invariant checks are meaningful.
struct RandomScriptOptions {
  int max_crashes = 2;          // Crash-or-leave events (each paired with a rejoin).
  int max_partitions = 1;       // Sequential partition/heal episodes.
  int max_perturbations = 2;    // Probabilistic link windows.
  double max_concurrent_down_fraction = 0.2;  // Cap on simultaneously dead hosts.
  double max_drop_prob = 0.25;
  double max_duplicate_prob = 0.2;
  double max_delay_spike_prob = 0.2;
  double max_delay_spike_ms = 400.0;
  // Hosts that must never be faulted (e.g. a bootstrap node a test relies on).
  std::vector<HostId> protected_hosts;
};

// Generates a bounded random fault script over hosts [0, num_hosts). Deterministic in
// `rng`; two generators seeded identically produce identical scripts.
FaultScript GenerateRandomFaultScript(Rng& rng, size_t num_hosts, double duration_ms,
                                      const RandomScriptOptions& opts = {});

// Trace-driven diurnal churn over the EUA topology: hosts are grouped into `regions`
// contiguous blocks (matching how the EUA dataset clusters edge servers by metro
// region) and each region's crash intensity follows a sinusoidal day/night curve with
// a region-specific phase offset — churn waves sweep across regions the way timezones
// sweep across a fleet. Discretized into `slot_ms` slots; within a slot the generator
// walks regions then hosts in index order, so RNG consumption (and thus the script) is
// a pure function of the seed.
struct DiurnalChurnOptions {
  double period_ms = 20000.0;    // One simulated "day".
  double slot_ms = 500.0;        // Intensity discretization step.
  size_t regions = 4;            // Contiguous host blocks with phase-shifted curves.
  double base_churn_prob = 0.002;  // Per-host per-slot crash probability at the trough.
  double peak_churn_prob = 0.05;   // ... and at the peak of the region's curve.
  double min_down_ms = 800.0;    // Outage duration range (uniform).
  double max_down_ms = 3000.0;
  double max_concurrent_down_fraction = 0.25;  // Cap on simultaneously dead hosts.
  std::vector<HostId> protected_hosts;
};

// Every crash is paired with a rejoin and all events land in [5%, 90%] of the run, so
// invariant checks (post-heal convergence) stay meaningful. Deterministic in `rng`.
FaultScript GenerateDiurnalChurnScript(Rng& rng, size_t num_hosts, double duration_ms,
                                       const DiurnalChurnOptions& opts = {});

}  // namespace totoro

#endif  // SRC_FAULTSIM_FAULT_SCRIPT_H_
