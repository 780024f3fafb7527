#include "src/faultsim/fault_script.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace totoro {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kGracefulLeave:
      return "graceful_leave";
    case FaultKind::kRejoin:
      return "rejoin";
    case FaultKind::kPerturbBegin:
      return "perturb_begin";
    case FaultKind::kPerturbEnd:
      return "perturb_end";
    case FaultKind::kAttackBegin:
      return "attack_begin";
    case FaultKind::kAttackEnd:
      return "attack_end";
    case FaultKind::kSybilJoin:
      return "sybil_join";
  }
  return "unknown";
}

FaultScript& FaultScript::PartitionAt(SimTime at, std::vector<HostId> group_a,
                                      std::vector<HostId> group_b) {
  CHECK(!group_a.empty());
  CHECK(!group_b.empty());
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kPartition;
  ev.group_a = std::move(group_a);
  ev.group_b = std::move(group_b);
  events_.push_back(std::move(ev));
  return *this;
}

FaultScript& FaultScript::HealAt(SimTime at) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kHeal;
  events_.push_back(std::move(ev));
  return *this;
}

FaultScript& FaultScript::CrashAt(SimTime at, HostId host) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kCrash;
  ev.host = host;
  events_.push_back(std::move(ev));
  return *this;
}

FaultScript& FaultScript::GracefulLeaveAt(SimTime at, HostId host) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kGracefulLeave;
  ev.host = host;
  events_.push_back(std::move(ev));
  return *this;
}

FaultScript& FaultScript::RejoinAt(SimTime at, HostId host) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kRejoin;
  ev.host = host;
  events_.push_back(std::move(ev));
  return *this;
}

FaultScript& FaultScript::PerturbLinksAt(SimTime at, double duration_ms,
                                         LinkPerturbation rule) {
  CHECK_GT(duration_ms, 0.0);
  const uint64_t id = next_perturb_id_++;
  FaultEvent begin;
  begin.at = at;
  begin.kind = FaultKind::kPerturbBegin;
  begin.perturb = std::move(rule);
  begin.perturb_id = id;
  events_.push_back(std::move(begin));
  FaultEvent end;
  end.at = at + duration_ms;
  end.kind = FaultKind::kPerturbEnd;
  end.perturb_id = id;
  events_.push_back(std::move(end));
  return *this;
}

FaultScript& FaultScript::FlapLinkAt(SimTime at, HostId a, HostId b, double burst_ms,
                                     double gap_ms, int bursts) {
  CHECK_GT(burst_ms, 0.0);
  CHECK_GE(gap_ms, 0.0);
  LinkPerturbation rule;
  rule.endpoints_a = {a};
  rule.endpoints_b = {b};
  rule.drop_prob = 1.0;
  SimTime t = at;
  for (int i = 0; i < bursts; ++i) {
    PerturbLinksAt(t, burst_ms, rule);
    t += burst_ms + gap_ms;
  }
  return *this;
}

FaultScript& FaultScript::AttackAt(SimTime at, double duration_ms, AttackParams params) {
  CHECK_GT(duration_ms, 0.0);
  CHECK(!params.attackers.empty());
  const uint64_t id = next_perturb_id_++;
  FaultEvent begin;
  begin.at = at;
  begin.kind = FaultKind::kAttackBegin;
  begin.attack = std::move(params);
  begin.perturb_id = id;
  events_.push_back(std::move(begin));
  FaultEvent end;
  end.at = at + duration_ms;
  end.kind = FaultKind::kAttackEnd;
  end.perturb_id = id;
  events_.push_back(std::move(end));
  return *this;
}

FaultScript& FaultScript::SignFlipAt(SimTime at, double duration_ms,
                                     std::vector<HostId> attackers, double scale) {
  AttackParams params;
  params.kind = AttackKind::kSignFlip;
  params.attackers = std::move(attackers);
  params.scale = scale;
  return AttackAt(at, duration_ms, std::move(params));
}

FaultScript& FaultScript::GaussianNoiseAt(SimTime at, double duration_ms,
                                          std::vector<HostId> attackers, double stddev) {
  CHECK_GT(stddev, 0.0);
  AttackParams params;
  params.kind = AttackKind::kGaussianNoise;
  params.attackers = std::move(attackers);
  params.noise_stddev = stddev;
  return AttackAt(at, duration_ms, std::move(params));
}

FaultScript& FaultScript::GradientScaleAt(SimTime at, double duration_ms,
                                          std::vector<HostId> attackers, double scale) {
  AttackParams params;
  params.kind = AttackKind::kGradientScale;
  params.attackers = std::move(attackers);
  params.scale = scale;
  return AttackAt(at, duration_ms, std::move(params));
}

FaultScript& FaultScript::SybilJoinAt(SimTime at, const NodeId& topic,
                                      std::vector<HostId> sybils, AttackParams params) {
  CHECK(!sybils.empty());
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kSybilJoin;
  ev.topic = topic;
  ev.attack = std::move(params);
  ev.attack.attackers = std::move(sybils);
  events_.push_back(std::move(ev));
  return *this;
}

SimTime FaultScript::EndTime() const {
  SimTime end = 0.0;
  for (const auto& ev : events_) {
    end = std::max(end, ev.at);
  }
  return end;
}

FaultScript GenerateRandomFaultScript(Rng& rng, size_t num_hosts, double duration_ms,
                                      const RandomScriptOptions& opts) {
  CHECK_GT(num_hosts, 2u);
  CHECK_GT(duration_ms, 0.0);
  FaultScript script;
  // All injected faults live in [5%, 60%] of the run; the rest is convergence tail.
  const double fault_lo = duration_ms * 0.05;
  const double fault_hi = duration_ms * 0.6;

  auto is_protected = [&](HostId h) {
    return std::find(opts.protected_hosts.begin(), opts.protected_hosts.end(), h) !=
           opts.protected_hosts.end();
  };

  // Crash / graceful-leave episodes, each paired with a rejoin. Victims are distinct so
  // the concurrent-down cap is simply the victim count.
  const size_t down_cap = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(num_hosts) *
                             opts.max_concurrent_down_fraction));
  const int num_crashes = static_cast<int>(
      rng.NextBelow(static_cast<uint64_t>(
          std::min<size_t>(static_cast<size_t>(opts.max_crashes), down_cap)) +
          1));
  std::vector<HostId> victims;
  for (int i = 0; i < num_crashes; ++i) {
    HostId victim = kInvalidHost;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const HostId candidate = static_cast<HostId>(rng.NextBelow(num_hosts));
      if (is_protected(candidate) ||
          std::find(victims.begin(), victims.end(), candidate) != victims.end()) {
        continue;
      }
      victim = candidate;
      break;
    }
    if (victim == kInvalidHost) {
      break;
    }
    victims.push_back(victim);
    const double down_at = rng.Uniform(fault_lo, fault_hi * 0.7);
    const double up_at = down_at + rng.Uniform(duration_ms * 0.05, duration_ms * 0.2);
    if (rng.Bernoulli(0.5)) {
      script.CrashAt(down_at, victim);
    } else {
      script.GracefulLeaveAt(down_at, victim);
    }
    script.RejoinAt(std::min(up_at, fault_hi), victim);
  }

  // Sequential partition/heal episodes over a random split of the ring.
  const int num_partitions =
      static_cast<int>(rng.NextBelow(static_cast<uint64_t>(opts.max_partitions) + 1));
  double cursor = fault_lo;
  for (int i = 0; i < num_partitions && cursor < fault_hi * 0.8; ++i) {
    std::vector<HostId> a;
    std::vector<HostId> b;
    for (HostId h = 0; h < static_cast<HostId>(num_hosts); ++h) {
      (rng.Bernoulli(0.3) ? a : b).push_back(h);
    }
    if (a.empty() || b.empty()) {
      continue;  // Degenerate split; skip the episode.
    }
    const double start = rng.Uniform(cursor, fault_hi * 0.8);
    const double length = rng.Uniform(duration_ms * 0.05, duration_ms * 0.15);
    script.PartitionAt(start, std::move(a), std::move(b));
    script.HealAt(std::min(start + length, fault_hi));
    cursor = start + length + duration_ms * 0.02;
  }

  // Probabilistic perturbation windows: lossy/duplicating/spiking links.
  const int num_perturbs =
      static_cast<int>(rng.NextBelow(static_cast<uint64_t>(opts.max_perturbations) + 1));
  for (int i = 0; i < num_perturbs; ++i) {
    LinkPerturbation rule;
    // Half the windows target a random host subset, half hit the whole network.
    if (rng.Bernoulli(0.5)) {
      const size_t subset = 1 + rng.NextBelow(std::max<uint64_t>(1, num_hosts / 4));
      for (size_t k = 0; k < subset; ++k) {
        rule.endpoints_a.push_back(static_cast<HostId>(rng.NextBelow(num_hosts)));
      }
    }
    rule.drop_prob = rng.Uniform(0.0, opts.max_drop_prob);
    rule.duplicate_prob = rng.Uniform(0.0, opts.max_duplicate_prob);
    rule.delay_spike_prob = rng.Uniform(0.0, opts.max_delay_spike_prob);
    rule.delay_spike_ms = rng.Uniform(10.0, opts.max_delay_spike_ms);
    const double start = rng.Uniform(fault_lo, fault_hi * 0.8);
    const double length = rng.Uniform(duration_ms * 0.03, duration_ms * 0.15);
    script.PerturbLinksAt(start, std::min(length, fault_hi - start + 1.0),
                          std::move(rule));
  }
  return script;
}

FaultScript GenerateDiurnalChurnScript(Rng& rng, size_t num_hosts, double duration_ms,
                                       const DiurnalChurnOptions& opts) {
  CHECK_GT(num_hosts, 2u);
  CHECK_GT(duration_ms, 0.0);
  CHECK_GT(opts.slot_ms, 0.0);
  CHECK_GT(opts.period_ms, 0.0);
  CHECK_GE(opts.regions, 1u);
  CHECK_GE(opts.peak_churn_prob, opts.base_churn_prob);
  CHECK_GE(opts.max_down_ms, opts.min_down_ms);
  FaultScript script;
  const double churn_lo = duration_ms * 0.05;
  const double churn_hi = duration_ms * 0.9;
  const size_t regions = std::min(opts.regions, num_hosts);
  const size_t down_cap = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(num_hosts) *
                             opts.max_concurrent_down_fraction));

  auto is_protected = [&](HostId h) {
    return std::find(opts.protected_hosts.begin(), opts.protected_hosts.end(), h) !=
           opts.protected_hosts.end();
  };
  // EUA-style metro regions are contiguous id blocks (the topology assigns ids per
  // region); region r covers hosts [r * num_hosts / regions, (r+1) * num_hosts / regions).
  auto region_of = [&](HostId h) {
    return static_cast<size_t>(h) * regions / num_hosts;
  };

  // Virtual time (ms) each host stays down until; 0 = up. Slot-major, host-minor walk
  // keeps RNG consumption a pure function of the seed.
  std::vector<double> down_until(num_hosts, 0.0);
  size_t down_now = 0;
  constexpr double kTwoPi = 6.283185307179586;
  for (double t = churn_lo; t < churn_hi; t += opts.slot_ms) {
    for (HostId h = 0; h < static_cast<HostId>(num_hosts); ++h) {
      if (down_until[h] > 0.0 && down_until[h] <= t) {
        down_until[h] = 0.0;
        down_now -= 1;
      }
      if (down_until[h] > 0.0 || is_protected(h) || down_now >= down_cap) {
        continue;
      }
      // Sinusoidal intensity with a per-region phase offset: region r peaks
      // (r / regions) of a period after region 0.
      const double phase =
          kTwoPi * (t / opts.period_ms -
                    static_cast<double>(region_of(h)) / static_cast<double>(regions));
      const double wave = 0.5 * (1.0 + std::sin(phase));
      const double p =
          opts.base_churn_prob + (opts.peak_churn_prob - opts.base_churn_prob) * wave;
      if (!rng.Bernoulli(p)) {
        continue;
      }
      const double down_for = rng.Uniform(opts.min_down_ms, opts.max_down_ms);
      const double up_at = std::min(t + down_for, churn_hi);
      script.CrashAt(t, h);
      script.RejoinAt(up_at, h);
      down_until[h] = up_at;
      down_now += 1;
    }
  }
  return script;
}

}  // namespace totoro
