#include "src/sim/metrics.h"

#include "src/common/check.h"

namespace totoro {

void NetworkMetrics::Reserve(size_t n) { hosts_.reserve(n); }

void NetworkMetrics::EnsureHosts(size_t n) {
  if (hosts_.size() < n) {
    hosts_.resize(n);
  }
}

void NetworkMetrics::RecordSend(const Message& msg) {
  CHECK_LT(msg.src, hosts_.size());
  auto& t = hosts_[msg.src].traffic;
  ++t.msgs_sent;
  t.bytes_sent += msg.size_bytes;
  if (msg.transport == Transport::kTcp) {
    t.bytes_sent_tcp += msg.size_bytes;
  } else {
    t.bytes_sent_udp += msg.size_bytes;
  }
  t.bytes_sent_by_class[static_cast<size_t>(msg.traffic)] += msg.size_bytes;
}

void NetworkMetrics::RecordDelivery(const Message& msg) {
  CHECK_LT(msg.dst, hosts_.size());
  auto& t = hosts_[msg.dst].traffic;
  ++t.msgs_recv;
  t.bytes_recv += msg.size_bytes;
}

void NetworkMetrics::RecordDrop(HostId host, TrafficClass traffic) {
  CHECK_LT(host, hosts_.size());
  uint32_t& drops = hosts_[host].traffic.msgs_dropped_by_class[static_cast<size_t>(traffic)];
  CHECK_LT(drops, UINT32_MAX);
  ++drops;
}

uint64_t NetworkMetrics::total_messages() const {
  return SumHosts([](const HostAccounting& h) { return h.traffic.msgs_sent; });
}

uint64_t NetworkMetrics::total_bytes() const {
  return SumHosts([](const HostAccounting& h) { return h.traffic.bytes_sent; });
}

uint64_t NetworkMetrics::dropped_messages() const {
  return SumHosts([](const HostAccounting& h) { return h.traffic.msgs_dropped(); });
}

uint64_t NetworkMetrics::DroppedByClass(TrafficClass c) const {
  return SumHosts([c](const HostAccounting& h) -> uint64_t {
    return h.traffic.msgs_dropped_by_class[static_cast<size_t>(c)];
  });
}

void NetworkMetrics::ChargeWork(HostId host, WorkKind kind, double units) {
  CHECK_LT(host, hosts_.size());
  hosts_[host].work.work_units[static_cast<size_t>(kind)] += units;
}

void NetworkMetrics::AdjustStateBytes(HostId host, int64_t delta) {
  CHECK_LT(host, hosts_.size());
  hosts_[host].work.state_bytes += delta;
  CHECK_GE(hosts_[host].work.state_bytes, 0);
}

uint64_t NetworkMetrics::TotalBytesTcp() const {
  return SumHosts([](const HostAccounting& h) { return h.traffic.bytes_sent_tcp; });
}

uint64_t NetworkMetrics::TotalBytesUdp() const {
  return SumHosts([](const HostAccounting& h) { return h.traffic.bytes_sent_udp; });
}

uint64_t NetworkMetrics::TotalBytesByClass(TrafficClass c) const {
  return SumHosts([c](const HostAccounting& h) {
    return h.traffic.bytes_sent_by_class[static_cast<size_t>(c)];
  });
}

double NetworkMetrics::TotalWork(WorkKind kind) const {
  double total = 0;
  for (const auto& h : hosts_) {
    total += h.work.work_units[static_cast<size_t>(kind)];
  }
  return total;
}

int64_t NetworkMetrics::TotalStateBytes() const {
  int64_t total = 0;
  for (const auto& h : hosts_) {
    total += h.work.state_bytes;
  }
  return total;
}

void NetworkMetrics::PublishTo(MetricsRegistry& registry) const {
  const uint64_t hosts_with_drops = SumHosts(
      [](const HostAccounting& h) -> uint64_t { return h.traffic.msgs_dropped() > 0; });
  registry.GetGauge("net.msgs.sent").Set(static_cast<double>(total_messages()));
  registry.GetGauge("net.msgs.dropped").Set(static_cast<double>(dropped_messages()));
  registry.GetGauge("net.hosts.with_drops").Set(static_cast<double>(hosts_with_drops));
  registry.GetGauge("net.bytes.sent").Set(static_cast<double>(total_bytes()));
  registry.GetGauge("net.bytes.tcp").Set(static_cast<double>(TotalBytesTcp()));
  registry.GetGauge("net.bytes.udp").Set(static_cast<double>(TotalBytesUdp()));
  for (int c = 0; c < kNumTrafficClasses; ++c) {
    const auto traffic_class = static_cast<TrafficClass>(c);
    const std::string suffix = TrafficClassName(traffic_class);
    registry.GetGauge("net.bytes.class." + suffix)
        .Set(static_cast<double>(TotalBytesByClass(traffic_class)));
    registry.GetGauge("net.drops.class." + suffix)
        .Set(static_cast<double>(DroppedByClass(traffic_class)));
  }
  registry.GetGauge("work.fl.units").Set(TotalWork(WorkKind::kFlTask));
  registry.GetGauge("work.dht.units").Set(TotalWork(WorkKind::kDhtTask));
  registry.GetGauge("state.bytes.total").Set(static_cast<double>(TotalStateBytes()));
}

void NetworkMetrics::Reset() {
  for (auto& h : hosts_) {
    h = HostAccounting{};
  }
}

}  // namespace totoro
