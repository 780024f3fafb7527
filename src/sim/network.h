// Simulated message-passing network connecting hosts.
//
// Delivery time = sender NIC queueing + transmission (size / uplink bandwidth) +
// propagation latency + receiver NIC queueing + reception (size / downlink bandwidth).
// Modelling both NIC sides matters: the centralized FL baseline's parameter server
// bottlenecks on its downlink when many clients upload gradients concurrently, which is
// the mechanism behind Table 3's speedup trend. Hosts can be marked down (churn);
// messages to down hosts are silently dropped and counted, matching UDP loss semantics —
// higher layers recover via keep-alive timers exactly as the paper's §4.5 describes.
#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/sim/latency_model.h"
#include "src/sim/message.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"

namespace totoro {

class Host {
 public:
  virtual ~Host() = default;
  virtual void HandleMessage(const Message& msg) = 0;
};

struct NetworkConfig {
  // Default per-host bandwidth in bytes per virtual ms (12500 B/ms = 100 Mbit/s).
  double default_bandwidth_bytes_per_ms = 12500.0;
  // When true, NIC serialization (queueing) is modelled; when false only propagation
  // latency applies. Hop-count-style experiments disable it for clarity.
  bool model_bandwidth = true;
};

// What a fault hook does to one message in flight. Drop wins over everything;
// otherwise the message is delivered `1 + extra_copies` times, each delivery delayed by
// `extra_delay_ms` on top of the normal transport time. A large enough delay makes the
// message arrive after later sends — that is how reordering is injected.
struct FaultAction {
  bool drop = false;
  int extra_copies = 0;
  double extra_delay_ms = 0.0;
};

class Network {
 public:
  Network(Simulator* sim, std::unique_ptr<LatencyModel> latency, NetworkConfig config = {});

  // Registers a host (non-owning) and returns its id. Hosts start up.
  HostId AddHost(Host* host);
  size_t num_hosts() const { return hosts_.size(); }

  // Pre-sizes host state (and per-host metrics) for a known-size topology so AddHost
  // never reallocates during construction of large overlays.
  void ReserveHosts(size_t n);

  void SetHostUp(HostId id, bool up);
  bool IsUp(HostId id) const;

  // Overrides the uplink/downlink bandwidth of one host (e.g. a beefy parameter server).
  void SetHostBandwidth(HostId id, double bytes_per_ms);

  // Sends msg from msg.src to msg.dst. A down src or the fault hook drops it at the
  // sender, a dst down at delivery drops it there (each counted in metrics). Self-sends
  // are delivered with loopback latency.
  void Send(Message msg);

  // Optional per-message fault hook, the one hook on the send path (message loss,
  // partitions, correlated flaps, duplicate/delay injection — see src/faultsim). Runs
  // once per send, after the send is accounted; fills `*action` and returns true when
  // the message is affected. At most one hook; a FaultInjector owns it when present.
  using FaultFn = std::function<bool(const Message&, FaultAction*)>;
  void SetFaultFn(FaultFn fn) { fault_fn_ = std::move(fn); }

  double LatencyMs(HostId a, HostId b) const { return latency_->LatencyMs(a, b); }
  const LatencyModel& latency_model() const { return *latency_; }

  Simulator* sim() { return sim_; }
  NetworkMetrics& metrics() { return metrics_; }
  const NetworkMetrics& metrics() const { return metrics_; }

 private:
  struct HostState {
    Host* host = nullptr;
    bool up = true;
    double bandwidth_bytes_per_ms = 0.0;
    SimTime tx_free_at = 0.0;
    SimTime rx_free_at = 0.0;
  };

  // Schedules one arrival event for `msg`, executing as its destination (possibly on
  // another shard) and keyed by the sender's canonical counter.
  void ScheduleArrival(Message&& msg, SimTime at);
  // Runs as the destination at the arrival time: books rx serialization, then
  // delivers now or, behind a backlog, when the NIC drains.
  void Arrive(const Message& msg);
  void Deliver(const Message& msg);

  Simulator* sim_;
  std::unique_ptr<LatencyModel> latency_;
  NetworkConfig config_;
  std::vector<HostState> hosts_;
  NetworkMetrics metrics_;
  FaultFn fault_fn_;
};

}  // namespace totoro

#endif  // SRC_SIM_NETWORK_H_
