// Executes FaultScripts against a live overlay, deterministically.
//
// The injector installs itself as the Network's fault hook (partitions and link
// perturbations act on messages in flight) and schedules each scripted event through
// the event queue (crashes, leaves, rejoins act on host state). All probabilistic
// decisions come from Rngs derived from the script seed — per (host, round) for
// attacks, per (src, dst, send-sequence) for link perturbations — so a scripted run
// replays bit-identically at any shard count: no draw ever depends on the global
// interleaving of messages, only on each sender's own canonical stream.
//
// The injector also exposes the ground truth the InvariantChecker needs: whether a
// partition is active (eventual invariants are only meaningful once reachability is
// restored) and when the last fault fired (convergence grace).
#ifndef SRC_FAULTSIM_FAULT_INJECTOR_H_
#define SRC_FAULTSIM_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "src/faultsim/fault_script.h"
#include "src/pubsub/forest.h"

namespace totoro {

class FaultInjector {
 public:
  struct Stats {
    uint64_t partitions = 0;
    uint64_t heals = 0;
    uint64_t crashes = 0;
    uint64_t graceful_leaves = 0;
    uint64_t rejoins = 0;
    uint64_t partition_drops = 0;  // Messages cut by an active partition.
    uint64_t perturb_drops = 0;    // Messages dropped by a probabilistic rule.
    uint64_t duplicates = 0;       // Extra copies injected.
    uint64_t delay_spikes = 0;     // Messages given a delay spike.
    uint64_t attacks_begun = 0;    // Attack windows activated.
    uint64_t sybil_joins = 0;      // Forged memberships injected.
    uint64_t poisoned_updates = 0; // Honest updates rewritten by an attacker rule.
    uint64_t forged_updates = 0;   // Sybil updates fabricated from the reference.
  };

  // `forest` may be null when only DHT-level scenarios run (graceful leaves then skip
  // the Scribe detach and degrade to crashes). The injector owns the network fault
  // hook for its lifetime.
  FaultInjector(PastryNetwork* pastry, Forest* forest, uint64_t seed);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every event of `script` relative to the current virtual time. May be
  // called more than once (scripts compose on the same timeline).
  void Schedule(const FaultScript& script);

  // Applies one event immediately (tests drive single faults without a timeline).
  void ApplyNow(const FaultEvent& event);

  // Byzantine attacker roles. These are plugged into the engine's generic adversary
  // hooks by the test harness (TotoroEngine::SetUpdateInterceptor / SetSybilProvider);
  // the engine never depends on faultsim.
  //
  // Rewrites (`weights`, `sample_weight`) in place per every attack rule active for
  // `host` right now. `reference` is the round's broadcast weights. Returns true when
  // any rule applied. Noise draws come from an Rng derived from (seed, host, round),
  // so poisoning is independent of submission order and thread count.
  bool PoisonUpdate(uint64_t round, HostId host, std::span<const float> reference,
                    std::vector<float>& weights, double& sample_weight);
  // Fabricates a forged update for a sybil membership of `topic`: starts from the
  // reference and applies the sybil's AttackParams. Returns false when `host` is not a
  // registered sybil for `topic` (the caller then submits an empty piece).
  bool ForgeSybilUpdate(const NodeId& topic, uint64_t round, HostId host,
                        std::span<const float> reference, std::vector<float>& weights,
                        double& sample_weight);

  // True when no active partition separates hosts a and b.
  bool Reachable(HostId a, HostId b) const;
  bool PartitionActive() const { return !partitions_.empty(); }
  // Virtual time of the most recently applied fault event (0 before the first).
  SimTime last_fault_ms() const { return last_fault_ms_; }
  // By-value snapshot: the message-path counters live in atomics (the network fault
  // hook runs on the sending shard's worker thread under the sharded engine), so the
  // snapshot folds them into the plain struct at read time. Read it with all shards
  // parked (i.e. outside Run) for exact totals.
  Stats stats() const {
    Stats out = stats_;
    out.partition_drops = partition_drops_.load(std::memory_order_relaxed);
    out.perturb_drops = perturb_drops_.load(std::memory_order_relaxed);
    out.duplicates = duplicates_.load(std::memory_order_relaxed);
    out.delay_spikes = delay_spikes_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  struct ActivePartition {
    std::vector<uint8_t> in_a;  // Indexed by HostId.
    std::vector<uint8_t> in_b;
  };
  struct ActivePerturb {
    uint64_t id = 0;
    LinkPerturbation rule;
    std::vector<uint8_t> in_a;  // Prebuilt membership; empty => wildcard side.
    std::vector<uint8_t> in_b;
  };
  struct ActiveAttack {
    uint64_t id = 0;
    AttackParams params;
    std::vector<uint8_t> member;  // Indexed by HostId.
  };
  struct ActiveSybil {
    NodeId topic;
    HostId host = kInvalidHost;
    AttackParams params;
  };

  // Applies `params` to (weights, sample_weight) with noise from `rng`.
  void ApplyAttack(const AttackParams& params, std::span<const float> reference,
                   std::vector<float>& weights, double& sample_weight, Rng& rng);
  // Derived generator for one (host, round) poisoning decision.
  Rng AttackRng(HostId host, uint64_t round) const;
  // Derived generator for one message's perturbation draws, keyed by
  // (src, dst, src's send sequence). Bumps the sequence; call at most once per
  // message, from the sender's execution context.
  Rng PerturbRng(HostId src, HostId dst);

  bool OnMessage(const Message& msg, FaultAction* action);
  bool PerturbMatches(const ActivePerturb& p, const Message& msg) const;
  // Deterministic bootstrap choice for a rejoining host: lowest live host id != host.
  HostId BootstrapFor(HostId host) const;
  // The host's ScribeNode; null without a forest or for a host that joined after it.
  ScribeNode* ScribeForHost(HostId host) const;

  PastryNetwork* pastry_;
  Forest* forest_;  // Nullable.
  // Independent stream keys mixed from the script seed at construction; every
  // probabilistic decision derives a fresh Rng from one of these plus its own
  // identity, so no decision consumes another's draws.
  uint64_t attack_seed_ = 0;
  uint64_t perturb_seed_ = 0;
  // Per-sender message sequence for PerturbRng. A host's send stream is canonical
  // (the same at any shard count), so the counter is K-independent; the fault hook
  // runs in the SENDER's execution context, so each element is only ever touched by
  // the thread owning that host's shard. Sized by ApplyNow with workers parked.
  std::vector<uint64_t> send_seq_;
  std::vector<ActivePartition> partitions_;
  std::vector<ActivePerturb> perturbs_;
  std::vector<ActiveAttack> attacks_;
  std::vector<ActiveSybil> sybils_;
  // Control-path fields of Stats (partitions, crashes, ...) mutate only from scripted
  // events, which execute with every shard parked; the four message-path counters
  // mutate from OnMessage on worker threads and live in these relaxed atomics instead
  // (their Stats fields are ignored until stats() folds the atomics in).
  Stats stats_;
  std::atomic<uint64_t> partition_drops_{0};
  std::atomic<uint64_t> perturb_drops_{0};
  std::atomic<uint64_t> duplicates_{0};
  std::atomic<uint64_t> delay_spikes_{0};
  SimTime last_fault_ms_ = 0.0;
};

}  // namespace totoro

#endif  // SRC_FAULTSIM_FAULT_INJECTOR_H_
