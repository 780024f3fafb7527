#include "src/faultsim/fault_injector.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/metrics_registry.h"

namespace totoro {
namespace {

Counter& FaultsAppliedCounter() {
  static thread_local Counter* c = &GlobalMetrics().GetCounter("faultsim.faults.applied");
  return *c;
}

Counter& PartitionDropCounter() {
  static thread_local Counter* c =
      &GlobalMetrics().GetCounter("faultsim.msgs.partition_dropped");
  return *c;
}

Counter& PoisonedUpdateCounter() {
  static thread_local Counter* c =
      &GlobalMetrics().GetCounter("faultsim.attack.updates_poisoned");
  return *c;
}

Counter& ForgedUpdateCounter() {
  static thread_local Counter* c =
      &GlobalMetrics().GetCounter("faultsim.attack.updates_forged");
  return *c;
}

Counter& SybilJoinCounter() {
  static thread_local Counter* c =
      &GlobalMetrics().GetCounter("faultsim.attack.sybils_joined");
  return *c;
}

// SplitMix64 finalizer; mixes (seed, host, round) into one independent stream key.
uint64_t MixSeed(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Builds an indexed membership vector from a host list.
std::vector<uint8_t> BuildMembership(const std::vector<HostId>& hosts, size_t num_hosts) {
  std::vector<uint8_t> member(num_hosts, 0);
  for (HostId h : hosts) {
    if (h < num_hosts) {
      member[h] = 1;
    }
  }
  return member;
}

}  // namespace

FaultInjector::FaultInjector(PastryNetwork* pastry, Forest* forest, uint64_t seed)
    : pastry_(pastry),
      forest_(forest),
      attack_seed_(MixSeed(seed)),
      perturb_seed_(MixSeed(seed ^ 0xA5A5A5A5A5A5A5A5ull)) {
  CHECK(pastry_ != nullptr);
  send_seq_.resize(pastry_->network()->num_hosts(), 0);
  pastry_->network()->SetFaultFn(
      [this](const Message& msg, FaultAction* action) { return OnMessage(msg, action); });
}

FaultInjector::~FaultInjector() { pastry_->network()->SetFaultFn({}); }

void FaultInjector::Schedule(const FaultScript& script) {
  Simulator* sim = pastry_->network()->sim();
  const SimTime base = sim->Now();
  for (const FaultEvent& ev : script.events()) {
    sim->ScheduleAt(base + ev.at, [this, ev]() { ApplyNow(ev); });
  }
}

ScribeNode* FaultInjector::ScribeForHost(HostId host) const {
  return forest_ != nullptr && host < forest_->size() ? &forest_->scribe(host) : nullptr;
}

HostId FaultInjector::BootstrapFor(HostId host) const {
  const Network& net = *pastry_->network();
  for (HostId h = 0; h < static_cast<HostId>(net.num_hosts()); ++h) {
    if (h != host && net.IsUp(h)) {
      return h;
    }
  }
  return kInvalidHost;
}

void FaultInjector::ApplyNow(const FaultEvent& ev) {
  Network* net = pastry_->network();
  // Scripted events run with every shard parked, so growing the per-sender sequence
  // table here (hosts added since construction) cannot race the message path.
  if (send_seq_.size() < net->num_hosts()) {
    send_seq_.resize(net->num_hosts(), 0);
  }
  last_fault_ms_ = net->sim()->Now();
  FaultsAppliedCounter().Increment();
  TLOG_DEBUG("faultsim: applying %s at t=%.1fms", FaultKindName(ev.kind), last_fault_ms_);
  switch (ev.kind) {
    case FaultKind::kPartition: {
      ActivePartition p;
      p.in_a = BuildMembership(ev.group_a, net->num_hosts());
      p.in_b = BuildMembership(ev.group_b, net->num_hosts());
      partitions_.push_back(std::move(p));
      stats_.partitions += 1;
      return;
    }
    case FaultKind::kHeal: {
      partitions_.clear();
      stats_.heals += 1;
      return;
    }
    case FaultKind::kCrash: {
      if (ev.host < net->num_hosts()) {
        net->SetHostUp(ev.host, false);
        stats_.crashes += 1;
      }
      return;
    }
    case FaultKind::kGracefulLeave: {
      if (ev.host >= net->num_hosts()) {
        return;
      }
      // Detach the host's Scribe state first (sends LEAVEs for cleanly detachable
      // topics); state where the host is still a forwarder stays and its children
      // recover through parent-heartbeat timeout, same as a crash.
      if (ScribeNode* scribe = ScribeForHost(ev.host); scribe != nullptr) {
        for (const NodeId& topic : scribe->Topics()) {
          scribe->Unsubscribe(topic);
        }
      }
      net->SetHostUp(ev.host, false);
      stats_.graceful_leaves += 1;
      return;
    }
    case FaultKind::kRejoin: {
      if (ev.host >= net->num_hosts() || net->IsUp(ev.host)) {
        return;
      }
      net->SetHostUp(ev.host, true);
      PastryNode& node = pastry_->node(ev.host);
      const HostId bootstrap = BootstrapFor(ev.host);
      if (bootstrap != kInvalidHost) {
        node.Join(bootstrap);
      }
      // Periodic drivers noticed the death and stopped; restart them (no-ops when the
      // corresponding feature is disabled in config).
      node.StartKeepAlive();
      if (ScribeNode* scribe = ScribeForHost(ev.host); scribe != nullptr) {
        scribe->StartMaintenance();
      }
      stats_.rejoins += 1;
      return;
    }
    case FaultKind::kPerturbBegin: {
      ActivePerturb p;
      p.id = ev.perturb_id;
      p.rule = ev.perturb;
      p.in_a = BuildMembership(ev.perturb.endpoints_a, net->num_hosts());
      p.in_b = BuildMembership(ev.perturb.endpoints_b, net->num_hosts());
      perturbs_.push_back(std::move(p));
      return;
    }
    case FaultKind::kPerturbEnd: {
      perturbs_.erase(std::remove_if(perturbs_.begin(), perturbs_.end(),
                                     [&](const ActivePerturb& p) { return p.id == ev.perturb_id; }),
                      perturbs_.end());
      return;
    }
    case FaultKind::kAttackBegin: {
      ActiveAttack a;
      a.id = ev.perturb_id;
      a.params = ev.attack;
      a.member = BuildMembership(ev.attack.attackers, net->num_hosts());
      attacks_.push_back(std::move(a));
      stats_.attacks_begun += 1;
      return;
    }
    case FaultKind::kAttackEnd: {
      attacks_.erase(std::remove_if(attacks_.begin(), attacks_.end(),
                                    [&](const ActiveAttack& a) { return a.id == ev.perturb_id; }),
                     attacks_.end());
      return;
    }
    case FaultKind::kSybilJoin: {
      for (HostId h : ev.attack.attackers) {
        if (h >= net->num_hosts() || !net->IsUp(h)) {
          continue;
        }
        ScribeNode* scribe = ScribeForHost(h);
        if (scribe == nullptr || scribe->IsSubscriber(ev.topic)) {
          continue;
        }
        // The forged membership goes through the real JOIN protocol — the tree grafts
        // the sybil exactly like an honest worker would be.
        scribe->Subscribe(ev.topic);
        ActiveSybil s;
        s.topic = ev.topic;
        s.host = h;
        s.params = ev.attack;
        sybils_.push_back(std::move(s));
        stats_.sybil_joins += 1;
        SybilJoinCounter().Increment();
      }
      return;
    }
  }
}

Rng FaultInjector::AttackRng(HostId host, uint64_t round) const {
  return Rng(attack_seed_ ^ MixSeed(static_cast<uint64_t>(host) * 0x632BE59BD9B4E019ull ^
                                    round * 0xFF51AFD7ED558CCDull));
}

Rng FaultInjector::PerturbRng(HostId src, HostId dst) {
  // The sequence makes repeated sends over the same link draw independently; it is a
  // pure function of src's canonical send stream, so the derived stream — unlike a
  // shared Rng consumed in global message order — is identical at any shard count.
  const uint64_t seq = src < send_seq_.size() ? send_seq_[src]++ : 0;
  return Rng(perturb_seed_ ^
             MixSeed(static_cast<uint64_t>(src) * 0x632BE59BD9B4E019ull ^
                     static_cast<uint64_t>(dst) * 0x9E3779B97F4A7C15ull ^
                     seq * 0xFF51AFD7ED558CCDull));
}

void FaultInjector::ApplyAttack(const AttackParams& params,
                                std::span<const float> reference,
                                std::vector<float>& weights, double& sample_weight,
                                Rng& rng) {
  CHECK_EQ(weights.size(), reference.size());
  switch (params.kind) {
    case AttackKind::kSignFlip:
      for (size_t i = 0; i < weights.size(); ++i) {
        const double delta =
            static_cast<double>(weights[i]) - static_cast<double>(reference[i]);
        weights[i] =
            static_cast<float>(static_cast<double>(reference[i]) - params.scale * delta);
      }
      break;
    case AttackKind::kGaussianNoise:
      for (size_t i = 0; i < weights.size(); ++i) {
        weights[i] = static_cast<float>(static_cast<double>(weights[i]) +
                                        rng.Gaussian(0.0, params.noise_stddev));
      }
      break;
    case AttackKind::kGradientScale:
      for (size_t i = 0; i < weights.size(); ++i) {
        const double delta =
            static_cast<double>(weights[i]) - static_cast<double>(reference[i]);
        weights[i] =
            static_cast<float>(static_cast<double>(reference[i]) + params.scale * delta);
      }
      break;
  }
  if (params.claimed_weight > 0.0) {
    sample_weight = params.claimed_weight;
  }
}

bool FaultInjector::PoisonUpdate(uint64_t round, HostId host,
                                 std::span<const float> reference,
                                 std::vector<float>& weights, double& sample_weight) {
  bool poisoned = false;
  for (const ActiveAttack& a : attacks_) {
    if (host >= a.member.size() || !a.member[host]) {
      continue;
    }
    Rng derived = AttackRng(host, round);
    ApplyAttack(a.params, reference, weights, sample_weight, derived);
    poisoned = true;
  }
  if (poisoned) {
    stats_.poisoned_updates += 1;
    PoisonedUpdateCounter().Increment();
  }
  return poisoned;
}

bool FaultInjector::ForgeSybilUpdate(const NodeId& topic, uint64_t round, HostId host,
                                     std::span<const float> reference,
                                     std::vector<float>& weights,
                                     double& sample_weight) {
  for (const ActiveSybil& s : sybils_) {
    if (s.host != host || !(s.topic == topic)) {
      continue;
    }
    // A sybil's "honest" update is the reference itself; the attack params shape the
    // forged payload from there.
    weights.assign(reference.begin(), reference.end());
    sample_weight = 1.0;
    Rng derived = AttackRng(host, round);
    ApplyAttack(s.params, reference, weights, sample_weight, derived);
    stats_.forged_updates += 1;
    ForgedUpdateCounter().Increment();
    return true;
  }
  return false;
}

bool FaultInjector::Reachable(HostId a, HostId b) const {
  for (const ActivePartition& p : partitions_) {
    const bool cross = (a < p.in_a.size() && b < p.in_b.size() && p.in_a[a] && p.in_b[b]) ||
                       (b < p.in_a.size() && a < p.in_b.size() && p.in_a[b] && p.in_b[a]);
    if (cross) {
      return false;
    }
  }
  return true;
}

bool FaultInjector::PerturbMatches(const ActivePerturb& p, const Message& msg) const {
  if (p.rule.class_mask != 0 &&
      (p.rule.class_mask & (1u << static_cast<uint32_t>(msg.traffic))) == 0) {
    return false;
  }
  const bool has_a = !p.rule.endpoints_a.empty();
  const bool has_b = !p.rule.endpoints_b.empty();
  if (has_a && has_b) {
    // Directional pair rule: the message must cross between the two sets.
    return (msg.src < p.in_a.size() && msg.dst < p.in_b.size() && p.in_a[msg.src] &&
            p.in_b[msg.dst]) ||
           (msg.dst < p.in_a.size() && msg.src < p.in_b.size() && p.in_a[msg.dst] &&
            p.in_b[msg.src]);
  }
  if (has_a) {
    return (msg.src < p.in_a.size() && p.in_a[msg.src]) ||
           (msg.dst < p.in_a.size() && p.in_a[msg.dst]);
  }
  return true;  // Wildcard rule.
}

bool FaultInjector::OnMessage(const Message& msg, FaultAction* action) {
  if (!Reachable(msg.src, msg.dst)) {
    action->drop = true;
    partition_drops_.fetch_add(1, std::memory_order_relaxed);
    PartitionDropCounter().Increment();
    return true;
  }
  bool affected = false;
  // One derived Rng per perturbable message, created on first rule match. Rules draw
  // from it in perturbs_ order (mutated only by parked scripted events), so the whole
  // decision sequence is a function of (seed, src, dst, seq) — never of how messages
  // from different senders happened to interleave.
  Rng msg_rng(0);
  bool have_rng = false;
  for (const ActivePerturb& p : perturbs_) {
    if (!PerturbMatches(p, msg)) {
      continue;
    }
    if (!have_rng) {
      have_rng = true;
      msg_rng = PerturbRng(msg.src, msg.dst);
    }
    if (p.rule.drop_prob > 0.0 && msg_rng.Bernoulli(p.rule.drop_prob)) {
      action->drop = true;
      perturb_drops_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (p.rule.duplicate_prob > 0.0 && msg_rng.Bernoulli(p.rule.duplicate_prob)) {
      action->extra_copies += 1;
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      affected = true;
    }
    if (p.rule.delay_spike_prob > 0.0 && msg_rng.Bernoulli(p.rule.delay_spike_prob)) {
      action->extra_delay_ms += p.rule.delay_spike_ms;
      delay_spikes_.fetch_add(1, std::memory_order_relaxed);
      affected = true;
    }
  }
  return affected;
}

}  // namespace totoro
