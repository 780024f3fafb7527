// Per-host traffic/work accounting, and network totals summed from it.
//
// Fig. 7 reports traffic per node by transport (TCP vs UDP); Fig. 13 splits work into
// FL-related and DHT-related. Because the testbed here is a simulator, overhead is
// tracked by explicit accounting: every sent message updates byte counters, and protocol
// layers report abstract "work units" (a proxy for CPU time) and state bytes (a proxy
// for resident memory).
//
// Every send, drop and delivery is counted once, in the entry of the host where it
// happened (the sender, the host where the message died, the receiver), and every
// network-wide figure is a sum over the entries. During a K>1 run only the worker that
// runs a host writes that host's entry, and control events run with every worker
// parked, so the accounting needs no per-thread state. A total costs O(hosts) per
// read; totals are read outside runs (snapshots, PublishTo, benches).
#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/prefetch.h"
#include "src/obs/metrics_registry.h"
#include "src/sim/message.h"

namespace totoro {

struct HostTraffic {
  uint64_t msgs_sent = 0;
  uint64_t msgs_recv = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_recv = 0;
  uint64_t bytes_sent_tcp = 0;
  uint64_t bytes_sent_udp = 0;
  std::array<uint64_t, kNumTrafficClasses> bytes_sent_by_class{};
  // Drops attributed to this host (down, lost, filtered), per traffic class. 32-bit
  // keeps the entry small; RecordDrop CHECK-fails rather than wrap.
  std::array<uint32_t, kNumTrafficClasses> msgs_dropped_by_class{};

  uint64_t msgs_dropped() const {
    uint64_t total = 0;
    for (const uint32_t n : msgs_dropped_by_class) {
      total += n;
    }
    return total;
  }
};

// Work categories for Fig. 13's CPU-overhead split.
enum class WorkKind : uint8_t { kFlTask = 0, kDhtTask = 1 };
inline constexpr int kNumWorkKinds = 2;

struct HostWork {
  // Abstract work units; FL layers charge per parameter touched, DHT layers per
  // routing-table operation.
  std::array<double, kNumWorkKinds> work_units{};
  // Current bytes of long-lived protocol state (routing tables, children tables,
  // buffered models); updated incrementally by the owning layer.
  int64_t state_bytes = 0;
};

class NetworkMetrics {
 public:
  void EnsureHosts(size_t n);
  // Pre-sizes per-host accounting for a known-size topology.
  void Reserve(size_t n);

  void RecordSend(const Message& msg);
  void RecordDelivery(const Message& msg);
  // Hints that `host`'s accounting entry is about to be touched (see prefetch.h). The
  // entry spans more than one cache line; hint every line so ChargeWork and the
  // send/recv counters all land warm.
  void PrefetchHost(HostId host) const {
    if (host < hosts_.size()) {
      const char* p = reinterpret_cast<const char*>(&hosts_[host]);
      for (size_t off = 0; off < sizeof(HostAccounting); off += 64) {
        PrefetchRead(p + off);
      }
    }
  }
  void ChargeWork(HostId host, WorkKind kind, double units);
  void AdjustStateBytes(HostId host, int64_t delta);

  const HostTraffic& traffic(HostId host) const { return hosts_.at(host).traffic; }
  const HostWork& work(HostId host) const { return hosts_.at(host).work; }
  size_t num_hosts() const { return hosts_.size(); }

  uint64_t total_messages() const;
  uint64_t total_bytes() const;
  uint64_t dropped_messages() const;

  // Records a drop attributed to `host` (the host where the message died: the sender
  // when it was down or the link lost the packet, the receiver when it was down, the
  // filtering node for egress rejections), split by traffic class so churn experiments
  // can see which layer loses messages.
  void RecordDrop(HostId host, TrafficClass traffic);
  uint64_t DroppedByClass(TrafficClass c) const;

  // Aggregates across hosts.
  uint64_t TotalBytesTcp() const;
  uint64_t TotalBytesUdp() const;
  uint64_t TotalBytesByClass(TrafficClass c) const;
  double TotalWork(WorkKind kind) const;
  int64_t TotalStateBytes() const;

  // Snapshots the accounting into the named-metrics registry as gauges
  // (net.bytes.sent, net.drops.class.<class>, work.fl.units, ...), so exporters emit
  // one unified view. Gauge semantics: repeated calls overwrite, never double-count.
  void PublishTo(MetricsRegistry& registry) const;

  void Reset();

 private:
  // Traffic and work for one host share a struct (and so a cache neighbourhood): the
  // per-hop pattern "charge DHT work, then record the send" on the same host is two
  // touches of one entry instead of two random-indexed vectors. Work precedes traffic
  // so the per-hop fields (work units plus the leading recv/send counters) pack into
  // the entry's first cache lines.
  struct HostAccounting {
    HostWork work;
    HostTraffic traffic;
  };

  // Sums `field(entry)` over every host entry.
  template <typename Field>
  uint64_t SumHosts(Field field) const {
    uint64_t total = 0;
    for (const HostAccounting& h : hosts_) {
      total += field(h);
    }
    return total;
  }

  std::vector<HostAccounting> hosts_;
};

}  // namespace totoro

#endif  // SRC_SIM_METRICS_H_
