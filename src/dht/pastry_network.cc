#include "src/dht/pastry_network.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/obs/profiler.h"

namespace totoro {

PastryNetwork::PastryNetwork(Network* net, PastryConfig config) : net_(net), config_(config) {}

void PastryNetwork::Reserve(size_t num_nodes) {
  nodes_.reserve(num_nodes);
  by_id_.reserve(num_nodes);
  net_->ReserveHosts(num_nodes);
}

size_t PastryNetwork::AddNode(NodeId id) {
  CHECK(by_id_.find(id) == by_id_.end());
  auto node = std::make_unique<PastryNode>(net_, id, config_);
  if (node->host() != nodes_.size()) {
    CheckFailed(__FILE__, __LINE__,
                "PastryNetwork: a node's index must equal its HostId; add no host but "
                "Pastry nodes to the Network an overlay runs on");
  }
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

PastryNode* PastryNetwork::FindById(const NodeId& id) {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

namespace {

// Candidates sampled per routing-table slot; the proximity-closest of them is kept.
constexpr int kSamplesPerSlot = 4;
// Below this many nodes per worker, starting a thread costs more than it saves.
constexpr size_t kMinNodesPerWorker = 4096;
// Sorted positions per install chunk of a parallel build.
constexpr size_t kChunkNodes = 1024;
// The caller's count-only pass costs about as much as installing one chunk in this
// many (EXPERIMENTS.md "Two shards that pay", "Caller head start in BuildOracle").
constexpr size_t kChunksPerPassChunk = 30;

// The overlay in ascending id order as dense arrays, so the build reads a candidate's
// id and host without dereferencing its node.
struct SortedOverlay {
  std::vector<PastryNode*> nodes;
  std::vector<NodeId> ids;
  std::vector<HostId> hosts;
};

// The routing-table slots of every node, in one canonical order. ForEachRange(pos)
// visits the node's slots by row, then column, ascending, skipping its own digit and
// empty candidate ranges. The build draws kSamplesPerSlot `rng.NextBelow` picks from
// each range of more than one node, and none from a range of one.
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

  // Calls on_range(first, count) for each slot of the node at sorted position `pos`
  // whose candidates are the positions [first, first + count).
  template <typename OnRange>
  void ForEachRange(size_t pos, OnRange&& on_range) {
    Seek(pos);
    for (int r = 0; r < valid_rows_; ++r) {
      const uint32_t own_digit = ids_[pos].Digit(r, bits_);
      for (uint32_t c = 0; c < columns_; ++c) {
        const size_t first = Begin(r, c);
        const size_t count = Begin(r, c + 1) - first;
        if (c != own_digit && count != 0) {
          on_range(first, count);
        }
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
        if (row[columns_] - row[0] == 1) {  // Only pos shares r digits: no deeper candidate.
          valid_rows_ = r;
          return;
        }
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
  int valid_rows_ = 0;          // Rows holding the cached node's ranges; deeper ones are empty.
};

// Installs leaf sets and routing tables for ranges of sorted positions, drawing from
// `rng` in SlotSampler's order. Touches only those nodes, their hosts' accounting
// entries and the const latency model, so disjoint ranges can run concurrently. Each
// node's routing offers land in dense scratch rows, packed into the table once.
struct RangeInstaller {
  const SortedOverlay& overlay;
  const LatencyModel& latency;
  size_t half_leaf;
  SlotSampler sampler;
  RoutingTable::DenseRows staged;
  std::vector<RouteEntry> ring;

  void Install(size_t begin, size_t end, Rng& rng) {
    const size_t n = overlay.ids.size();
    for (size_t pos = begin; pos < end; ++pos) {
      PastryNode& node = *overlay.nodes[pos];
      const HostId self = overlay.hosts[pos];
      staged.Load(node.routing_table());
      // Leaf set: exact ring neighbors from the sorted order, nearest first on alternating
      // sides. On a ring of more than L nodes they are distinct, so an empty leaf set
      // takes them whole.
      ring.clear();
      for (size_t k = 1; k <= half_leaf && k < n; ++k) {
        for (const size_t other : {(pos + k) % n, (pos + n - k) % n}) {
          ring.push_back(RouteEntry{overlay.ids[other], overlay.hosts[other]});
        }
      }
      const bool whole = n > 2 * half_leaf && node.leaf_set().NumEntries() == 0;
      if (whole) {
        node.leaf_set().AssignRing(ring);
      }
      for (const RouteEntry& entry : ring) {
        node.Learn(entry, &staged, whole);
      }
      // Routing table: each slot keeps the proximity-closest of its sampled candidates
      // (the earliest draw on a tie).
      sampler.ForEachRange(pos, [&](size_t first, size_t count) {
        size_t best = count == 1 ? first : first + rng.NextBelow(count);
        double best_prox = latency.LatencyMs(self, overlay.hosts[best]);
        for (int s = 1; count > 1 && s < kSamplesPerSlot; ++s) {
          const size_t pick = first + rng.NextBelow(count);
          const double prox = latency.LatencyMs(self, overlay.hosts[pick]);
          if (prox < best_prox) {
            best = pick;
            best_prox = prox;
          }
        }
        staged.Consider(RouteEntry{overlay.ids[best], overlay.hosts[best]}, best_prox,
                        node.proximity());
      });
      node.routing_table().Assign(staged);
    }
  }
};

}  // namespace

void PastryNetwork::BuildOracle(Rng& rng) {
  BuildOracleOn(rng, std::min(AvailableCpus(), nodes_.size() / kMinNodesPerWorker));
}

void PastryNetwork::BuildOracleForTest(Rng& rng, size_t workers) { BuildOracleOn(rng, workers); }

void PastryNetwork::BuildOracleOn(Rng& rng, size_t workers) {
  // Declared first, so it closes after the install threads join.
  ProfileScope profile_scope("oracle_build");
  const size_t n = nodes_.size();
  CHECK_GT(n, 0u);
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
  RangeInstaller caller{overlay, net_->latency_model(),
                        static_cast<size_t>(config_.leaf_set_size) / 2,
                        SlotSampler(overlay.ids, b, rows), {}, {}};
  const size_t chunks = (n + kChunkNodes - 1) / kChunkNodes;
  workers = std::clamp<size_t>(workers, 1, chunks);
  if (workers == 1) {
    caller.Install(0, n, rng);
    return;
  }

  // Thread owner(c) (0 is the caller) installs chunk c, the sorted positions from
  // c * kChunkNodes, starting its draws at generator state starts[c]. The workers
  // install the first `head` chunks round robin while the caller runs the count-only
  // pass, so the caller gets as many fewer chunks as the pass costs; the rest go round
  // robin over every thread. Fixed ownership keeps each thread's share of the installed
  // tables, and so the growth of its malloc arena, the same from run to run.
  const size_t head = (workers - 1) * (chunks / kChunksPerPassChunk);
  const auto owner = [head, workers](size_t c) {
    return c < head ? 1 + c % (workers - 1) : (c - head) % workers;
  };
  std::vector<Rng> starts(chunks, rng);
  std::vector<std::atomic<bool>> published(chunks);
  const auto install_chunks = [&](RangeInstaller installer, size_t w) {
    for (size_t c = 0; c < chunks; ++c) {
      if (owner(c) == w) {
        published[c].wait(false, std::memory_order_acquire);
        installer.Install(c * kChunkNodes, std::min(n, (c + 1) * kChunkNodes), starts[c]);
      }
    }
  };
  std::vector<std::jthread> threads;
  for (size_t w = 1; w < workers; ++w) {
    threads.emplace_back(install_chunks, caller, w);
  }
  // The caller steps `rng` through every draw Install makes, in order, without computing
  // one, and publishes each chunk's start state as it reaches it. `rng` ends where a
  // one-worker build leaves it.
  SlotSampler sampler(overlay.ids, b, rows);
  for (size_t pos = 0; pos < n; ++pos) {
    if (pos % kChunkNodes == 0) {
      starts[pos / kChunkNodes] = rng;
      published[pos / kChunkNodes].store(true, std::memory_order_release);
      published[pos / kChunkNodes].notify_all();
    }
    sampler.ForEachRange(pos, [&rng](size_t, size_t count) {
      for (int s = 0; count > 1 && s < kSamplesPerSlot; ++s) {
        rng.SkipBelow(count);
      }
    });
  }
  install_chunks(std::move(caller), 0);
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
