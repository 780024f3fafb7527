// Pairwise propagation-latency models for the simulated network.
#ifndef SRC_SIM_LATENCY_MODEL_H_
#define SRC_SIM_LATENCY_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/common/geo.h"
#include "src/sim/message.h"

namespace totoro {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  // One-way propagation delay in virtual ms between two hosts. Must be symmetric and
  // deterministic for a given pair so repeated sends see a stable base latency, and
  // safe to call concurrently: PastryNetwork::BuildOracle calls it from several
  // threads at once.
  virtual double LatencyMs(HostId a, HostId b) const = 0;
  // Lower bound over all pairs, used as the sharded simulator's conservative-barrier
  // lookahead. 0 (the safe default) forces the sharded engine to reject K > 1 rather
  // than risk a causality violation; models that know their floor override this.
  virtual double MinLatencyMs() const { return 0.0; }
};

class ConstantLatency : public LatencyModel {
 public:
  explicit ConstantLatency(double ms) : ms_(ms) {}
  double LatencyMs(HostId, HostId) const override { return ms_; }
  double MinLatencyMs() const override { return ms_; }

 private:
  double ms_;
};

// Deterministic per-pair latency drawn uniformly from [lo, hi] by hashing the pair with
// a seed. Models a WAN with heterogeneous but stable link delays.
class PairwiseUniformLatency : public LatencyModel {
 public:
  PairwiseUniformLatency(double lo_ms, double hi_ms, uint64_t seed)
      : lo_(lo_ms), hi_(hi_ms), seed_(seed) {}
  double LatencyMs(HostId a, HostId b) const override;
  double MinLatencyMs() const override { return lo_; }

 private:
  double lo_;
  double hi_;
  uint64_t seed_;
};

// Latency derived from geographic positions (haversine distance at WAN propagation
// speed). One-way latency = RTT estimate / 2.
class GeoLatency : public LatencyModel {
 public:
  explicit GeoLatency(std::vector<GeoPoint> positions) : positions_(std::move(positions)) {}
  double LatencyMs(HostId a, HostId b) const override;
  const std::vector<GeoPoint>& positions() const { return positions_; }

 private:
  std::vector<GeoPoint> positions_;
};

}  // namespace totoro

#endif  // SRC_SIM_LATENCY_MODEL_H_
