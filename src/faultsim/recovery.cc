#include "src/faultsim/recovery.h"

#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/common/check.h"
#include "src/obs/metrics_registry.h"

namespace totoro {

double MeasureRecovery(Forest* forest, const NodeId& topic) {
  constexpr double kProbeIntervalMs = 100.0;  // One probe round per interval.
  constexpr double kTimeoutMs = 20000.0;      // Give up after this much virtual time.
  // Probe rounds start here, far above application rounds so closed-round bookkeeping
  // in the tree never confuses a probe for a stale FL round.
  constexpr uint64_t kRoundBase = 1000000000ull;
  CHECK(forest != nullptr);
  Simulator* sim = forest->pastry().network()->sim();
  const SimTime start = sim->Now();

  // Deliveries are tracked per probe round, and a probe succeeds as soon as its full
  // expected set has received it — even if that happens several intervals after the
  // publish. Requiring same-interval delivery would permanently fail deep trees whose
  // root-to-leaf forwarding latency exceeds one probe interval.
  struct ProbeState {
    std::map<uint64_t, std::unordered_set<HostId>> got;
  };
  auto state = std::make_shared<ProbeState>();
  forest->SetOnBroadcast(
      [state](HostId host, const NodeId&, uint64_t round, const ScribeBroadcast&) {
        state->got[round].insert(host);
      });

  // The recipients each probe must reach: subscribers live at its publish time.
  std::map<uint64_t, std::vector<HostId>> expected;
  double result = -1.0;
  for (uint64_t attempt = 0; sim->Now() - start <= kTimeoutMs; ++attempt) {
    const size_t root = forest->RootOf(topic);
    if (root != SIZE_MAX) {
      const uint64_t round = kRoundBase + attempt;
      auto& recipients = expected[round];
      for (size_t i = 0; i < forest->size(); ++i) {
        const ScribeNode& s = forest->scribe(i);
        if (s.pastry().alive() && s.IsSubscriber(topic)) {
          recipients.push_back(s.host());
        }
      }
      forest->scribe(root).Broadcast(topic, round, nullptr, /*size_bytes=*/64);
    }
    sim->RunFor(kProbeIntervalMs);
    for (const auto& [round, recipients] : expected) {
      if (recipients.empty()) {
        continue;
      }
      const auto got_it = state->got.find(round);
      if (got_it == state->got.end()) {
        continue;
      }
      bool all = true;
      for (HostId h : recipients) {
        if (got_it->second.find(h) == got_it->second.end()) {
          all = false;
          break;
        }
      }
      if (all) {
        result = sim->Now() - start;
        break;
      }
    }
    if (result >= 0.0) {
      break;
    }
  }
  GlobalMetrics().GetGauge("faultsim.recovery.post_heal_ms").Set(result);
  return result;
}

}  // namespace totoro
