#include "src/dht/pastry_network.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <thread>

#include "src/common/check.h"

namespace totoro {

PastryNetwork::PastryNetwork(Network* net, PastryConfig config) : net_(net), config_(config) {}

void PastryNetwork::Reserve(size_t num_nodes) {
  nodes_.reserve(num_nodes);
  by_host_.reserve(net_->num_hosts() + num_nodes);
  by_id_.reserve(num_nodes);
  net_->ReserveHosts(num_nodes);
}

size_t PastryNetwork::AddNode(NodeId id) {
  CHECK(by_id_.find(id) == by_id_.end());
  auto node = std::make_unique<PastryNode>(net_, id, config_);
  if (by_host_.size() <= node->host()) {
    by_host_.resize(node->host() + size_t{1}, nullptr);
  }
  by_host_[node->host()] = node.get();
  by_id_[id] = node.get();
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

size_t PastryNetwork::AddRandomNode(Rng& rng) {
  NodeId id = RandomNodeId(rng);
  while (by_id_.find(id) != by_id_.end()) {
    id = RandomNodeId(rng);
  }
  return AddNode(id);
}

PastryNode* PastryNetwork::FindByHost(HostId host) {
  return host < by_host_.size() ? by_host_[host] : nullptr;
}

PastryNode* PastryNetwork::FindById(const NodeId& id) {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

namespace {

// Candidates sampled per routing-table slot; the proximity-closest of them is kept.
constexpr int kSamplesPerSlot = 4;
// Below this many nodes per worker, starting a thread costs more than it saves.
constexpr size_t kMinNodesPerWorker = 4096;

// The overlay in ascending id order as dense arrays, so the build reads a candidate's
// id and host without dereferencing its node.
struct SortedOverlay {
  std::vector<PastryNode*> nodes;
  std::vector<NodeId> ids;
  std::vector<HostId> hosts;
};

// The routing-table sample draws of every node, in the one order both build passes
// share. Draw(pos) visits the node's slots by row, then column, ascending, skipping its
// own digit and empty candidate ranges. A range of one node yields that node without a
// draw; any other yields kSamplesPerSlot `rng.NextBelow` picks from the range.
//
// Row r's candidates for column c are the sorted positions whose ids share the node's
// first r digits and have digit r equal to c. Each call recomputes only the rows whose
// prefix differs from the previous call's node, searching each inside its parent row's
// range, so consecutive nodes that share a prefix reuse its column boundaries.
class SlotSampler {
 public:
  SlotSampler(const std::vector<NodeId>& ids, int bits, int rows)
      : ids_(ids),
        bits_(bits),
        rows_(rows),
        columns_(1u << bits),
        bounds_(static_cast<size_t>(rows) * (columns_ + 1)) {}

  // Calls on_slot(picks, num_picks) with the sorted positions drawn for each slot of
  // the node at sorted position `pos`.
  template <typename OnSlot>
  void Draw(size_t pos, Rng& rng, OnSlot&& on_slot) {
    Seek(pos);
    std::array<size_t, kSamplesPerSlot> picks{};
    for (int r = 0; r < rows_; ++r) {
      const uint32_t own_digit = ids_[pos].Digit(r, bits_);
      for (uint32_t c = 0; c < columns_; ++c) {
        const size_t first = Begin(r, c);
        const size_t count = Begin(r, c + 1) - first;
        if (c == own_digit || count == 0) {
          continue;
        }
        if (count == 1) {
          picks[0] = first;
          on_slot(picks.data(), size_t{1});
          continue;
        }
        for (size_t& pick : picks) {
          pick = first + rng.NextBelow(count);
        }
        on_slot(picks.data(), picks.size());
      }
    }
  }

 private:
  // Row r, column c's candidates are the positions [Begin(r, c), Begin(r, c + 1)).
  size_t Begin(int row, uint32_t col) const {
    return bounds_[static_cast<size_t>(row) * (columns_ + 1) + col];
  }

  void Seek(size_t pos) {
    // Row r stays valid while pos is inside its range (positions sharing the cached
    // node's first r digits). Ranges nest, so the valid rows are a prefix.
    while (valid_rows_ > 0 &&
           !(Begin(valid_rows_ - 1, 0) <= pos && pos < Begin(valid_rows_ - 1, columns_))) {
      --valid_rows_;
    }
    for (int r = valid_rows_; r < rows_; ++r) {
      size_t* row = &bounds_[static_cast<size_t>(r) * (columns_ + 1)];
      if (r == 0) {
        row[0] = 0;
        row[columns_] = ids_.size();
      } else {
        const uint32_t parent_digit = ids_[pos].Digit(r - 1, bits_);
        row[0] = Begin(r - 1, parent_digit);
        row[columns_] = Begin(r - 1, parent_digit + 1);
      }
      // Inside the range digit r never decreases, so each boundary is a partition point.
      const auto end = ids_.begin() + static_cast<ptrdiff_t>(row[columns_]);
      for (uint32_t c = 1; c < columns_; ++c) {
        const auto first = std::partition_point(
            ids_.begin() + static_cast<ptrdiff_t>(row[c - 1]), end,
            [&](const NodeId& other) { return other.Digit(r, bits_) < c; });
        row[c] = static_cast<size_t>(first - ids_.begin());
      }
    }
    valid_rows_ = rows_;
  }

  const std::vector<NodeId>& ids_;
  int bits_;
  int rows_;
  uint32_t columns_;
  std::vector<size_t> bounds_;  // rows_ x (columns_ + 1) boundaries.
  int valid_rows_ = 0;
};

// Installs leaf sets and routing tables for sorted positions [begin, end), drawing from
// `rng` as SlotSampler orders it. Touches only those nodes, their hosts' accounting
// entries and the const latency model, so disjoint ranges can run concurrently. Each
// node's routing offers land in dense scratch rows, packed into the table once.
void InstallRange(const SortedOverlay& overlay, const LatencyModel& latency,
                  const PastryConfig& config, int rows, size_t begin, size_t end,
                  Rng& rng) {
  const size_t n = overlay.ids.size();
  const size_t half_leaf = static_cast<size_t>(config.leaf_set_size) / 2;
  SlotSampler sampler(overlay.ids, config.bits_per_digit, rows);
  RoutingTable::DenseRows staged;
  for (size_t pos = begin; pos < end; ++pos) {
    PastryNode& node = *overlay.nodes[pos];
    const HostId self = overlay.hosts[pos];
    staged.Load(node.routing_table());
    // Leaf set: exact ring neighbors from the sorted order.
    for (size_t k = 1; k <= half_leaf && k < n; ++k) {
      for (const size_t other : {(pos + k) % n, (pos + n - k) % n}) {
        node.Learn(RouteEntry{overlay.ids[other], overlay.hosts[other]}, &staged);
      }
    }
    // Routing table: each slot keeps the proximity-closest of its sampled candidates
    // (the earliest draw on a tie).
    sampler.Draw(pos, rng, [&](const size_t* picks, size_t num_picks) {
      size_t best = picks[0];
      double best_prox = latency.LatencyMs(self, overlay.hosts[best]);
      for (size_t s = 1; s < num_picks; ++s) {
        const double prox = latency.LatencyMs(self, overlay.hosts[picks[s]]);
        if (prox < best_prox) {
          best = picks[s];
          best_prox = prox;
        }
      }
      staged.Consider(RouteEntry{overlay.ids[best], overlay.hosts[best]}, best_prox,
                      node.proximity());
    });
    node.routing_table().Assign(staged);
  }
}

}  // namespace

void PastryNetwork::BuildOracle(Rng& rng) {
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  BuildOracleOn(rng, std::min(hardware, nodes_.size() / kMinNodesPerWorker));
}

void PastryNetwork::BuildOracleForTest(Rng& rng, size_t workers) { BuildOracleOn(rng, workers); }

void PastryNetwork::BuildOracleOn(Rng& rng, size_t workers) {
  const size_t n = nodes_.size();
  CHECK_GT(n, 0u);
  workers = std::clamp<size_t>(workers, 1, n);
  SortedOverlay overlay;
  overlay.nodes.reserve(n);
  for (const auto& node : nodes_) {
    overlay.nodes.push_back(node.get());
  }
  std::sort(overlay.nodes.begin(), overlay.nodes.end(),
            [](const PastryNode* a, const PastryNode* b) { return a->id() < b->id(); });
  overlay.ids.reserve(n);
  overlay.hosts.reserve(n);
  for (const PastryNode* node : overlay.nodes) {
    overlay.ids.push_back(node->id());
    overlay.hosts.push_back(node->host());
  }

  const int b = config_.bits_per_digit;
  const int digits = 128 / b;
  // Rows beyond log_{2^b}(N)+2 have empty candidate intervals w.h.p.; skip them.
  const int rows =
      std::min(digits, static_cast<int>(std::ceil(std::log2(static_cast<double>(n)) / b)) + 2);
  const LatencyModel& latency = net_->latency_model();
  if (workers == 1) {
    InstallRange(overlay, latency, config_, rows, 0, n, rng);
    return;
  }

  // Worker w owns the sorted positions [range_begin(w), range_begin(w + 1)).
  const auto range_begin = [n, workers](size_t w) { return n * w / workers; };
  // Pass 1, serial: make every draw in the canonical order, snapshotting the generator
  // where each worker's range starts. This leaves `rng` where a one-worker build would.
  std::vector<Rng> starts;
  starts.reserve(workers);
  SlotSampler sampler(overlay.ids, b, rows);
  for (size_t pos = 0; pos < n; ++pos) {
    if (starts.size() < workers && pos == range_begin(starts.size())) {
      starts.push_back(rng);
    }
    sampler.Draw(pos, rng, [](const size_t*, size_t) {});
  }
  // Pass 2, parallel: each worker replays its range's draws from its snapshot.
  std::vector<std::jthread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    threads.emplace_back([&, w] {
      InstallRange(overlay, latency, config_, rows, range_begin(w), range_begin(w + 1),
                   starts[w]);
    });
  }
  InstallRange(overlay, latency, config_, rows, range_begin(0), range_begin(1), starts[0]);
}

void PastryNetwork::JoinAll() {
  CHECK_GT(nodes_.size(), 0u);
  // First node forms the overlay alone; the rest join through it (or a recent member).
  for (size_t i = 1; i < nodes_.size(); ++i) {
    const size_t bootstrap = i - 1;
    nodes_[i]->Join(nodes_[bootstrap]->host());
    net_->sim()->Run();
  }
}

std::vector<PastryNode*> PastryNetwork::FailRandomNodes(size_t count, Rng& rng) {
  std::vector<PastryNode*> live;
  for (const auto& node : nodes_) {
    if (node->alive()) {
      live.push_back(node.get());
    }
  }
  CHECK_LE(count, live.size());
  rng.Shuffle(live);
  live.resize(count);
  for (PastryNode* node : live) {
    net_->SetHostUp(node->host(), false);
  }
  return live;
}

void PastryNetwork::Heal(PastryNode& node) { net_->SetHostUp(node.host(), true); }

PastryNode* PastryNetwork::ClosestLiveNode(const NodeId& key) {
  PastryNode* best = nullptr;
  U128 best_dist = U128::Max();
  for (const auto& node : nodes_) {
    if (!node->alive()) {
      continue;
    }
    const U128 d = U128::RingDistance(node->id(), key);
    if (best == nullptr || d < best_dist || (d == best_dist && node->id() < best->id())) {
      best = node.get();
      best_dist = d;
    }
  }
  return best;
}

}  // namespace totoro
