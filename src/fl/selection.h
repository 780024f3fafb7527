// Client (participant) selection policies (§2.2.1's "flexible designs of participant
// selection algorithms").
//
// Random selection is FedAvg's default. The Oort-style policy scores clients by
// statistical utility (recent training loss — higher loss means more informative data)
// blended with system utility (device speed), the trade-off Oort [OSDI'21] introduced.
#ifndef SRC_FL_SELECTION_H_
#define SRC_FL_SELECTION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"

namespace totoro {

struct ClientInfo {
  size_t index = 0;
  double last_loss = 1.0;         // Statistical utility signal.
  double speed_factor = 1.0;      // System utility signal (compute).
  double bandwidth_factor = 1.0;  // System utility signal (link quality).
};

// A fleet device class: a named (compute, bandwidth) profile. Production edge fleets
// cluster into a handful of hardware tiers; modeling them as classes (instead of
// per-node continuous factors) gives the selector discrete populations to trade off.
struct DeviceClass {
  const char* name;
  double speed_factor;      // Relative local-training speed (1.0 = reference device).
  double bandwidth_factor;  // Relative link bandwidth (1.0 = reference link).
  double fleet_fraction;    // Share of the fleet in this class; fractions sum to 1.
};

// The built-in four-tier fleet mix (server-class edge box down to constrained sensor).
std::span<const DeviceClass> DefaultDeviceClasses();

// Deterministically assigns one of `classes` to each of `count` devices by seeded
// sampling of the fleet fractions. Returns per-device class indices; feed the speed
// factors to TotoroEngine::SetSpeedFactors, and either factor to ClientInfo.
std::vector<size_t> AssignDeviceClasses(size_t count,
                                        std::span<const DeviceClass> classes,
                                        uint64_t seed);

class ClientSelector {
 public:
  virtual ~ClientSelector() = default;
  // Picks `count` distinct clients out of `clients`.
  virtual std::vector<size_t> Select(const std::vector<ClientInfo>& clients, size_t count,
                                     Rng& rng) = 0;
};

class RandomSelector : public ClientSelector {
 public:
  std::vector<size_t> Select(const std::vector<ClientInfo>& clients, size_t count,
                             Rng& rng) override;
};

class OortLikeSelector : public ClientSelector {
 public:
  // exploration_fraction of the budget is sampled uniformly; the rest goes to the
  // highest utility = loss * speed^alpha * bandwidth^beta clients. The default beta of
  // 0 makes the bandwidth term exactly 1.0, reproducing the compute-only policy.
  OortLikeSelector(double exploration_fraction = 0.2, double speed_alpha = 0.5,
                   double bandwidth_beta = 0.0);
  std::vector<size_t> Select(const std::vector<ClientInfo>& clients, size_t count,
                             Rng& rng) override;

 private:
  double exploration_fraction_;
  double speed_alpha_;
  double bandwidth_beta_;
};

}  // namespace totoro

#endif  // SRC_FL_SELECTION_H_
