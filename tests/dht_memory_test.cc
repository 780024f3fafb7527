// Memory budget for per-node DHT state: the live heap bytes per node that building an
// overlay_route-shaped overlay (Reserve, AddRandomNode, BuildOracle) leaves behind,
// counted by replacing the global allocation functions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/dht/pastry_network.h"
#include "src/pubsub/scribe_node.h"
#include "src/sim/latency_model.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

// Live requested bytes over every global allocation. Each block carries its requested
// size in a header, so unsized deletes subtract as much as sized ones. The counter is
// atomic because BuildOracle allocates on worker threads.
namespace {

std::atomic<int64_t> g_live_bytes{0};
constexpr size_t kHeaderBytes = alignof(std::max_align_t);

void* CountedAlloc(size_t size) {
  void* block = std::malloc(size + kHeaderBytes);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  *static_cast<size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeaderBytes;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  void* block = static_cast<char*>(p) - kHeaderBytes;
  g_live_bytes.fetch_sub(static_cast<int64_t>(*static_cast<size_t*>(block)),
                         std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

// All kept out of line: GCC pairs a malloc() or free() it sees inlined at a new- or
// delete-expression with the operator at the other end and trips
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(size_t size) { return CountedAlloc(size); }
[[gnu::noinline]] void* operator new[](size_t size) { return CountedAlloc(size); }

[[gnu::noinline]] void operator delete(void* p) noexcept { CountedFree(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { CountedFree(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { CountedFree(p); }
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept { CountedFree(p); }

namespace totoro {
namespace {

// Builds `nodes` random ids the way perfbench's overlay_route does (links 2-40 ms, the
// default PastryConfig) and returns the live bytes per node added from just before
// Reserve to just after BuildOracle. With `keepalive`, every node then starts
// keep-alives and the count is taken one keep-alive interval later, with the first
// tick's heartbeats in flight.
double LiveBytesPerNode(size_t nodes, uint64_t seed, bool keepalive = false) {
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(2.0, 40.0, seed ^ 0xFEED));
  PastryConfig config;
  config.enable_keepalive = keepalive;
  PastryNetwork pastry(&net, config);
  Rng rng(seed);
  const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  pastry.Reserve(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  if (keepalive) {
    for (size_t i = 0; i < nodes; ++i) {
      pastry.node(i).StartKeepAlive();
    }
    sim.RunFor(config.keepalive_interval_ms);
  }
  const int64_t grown = g_live_bytes.load(std::memory_order_relaxed) - before;
  const double per_node = static_cast<double>(grown) / static_cast<double>(nodes);
  std::printf("n=%zu seed=%llu%s: %.0f live bytes per node\n", nodes,
              static_cast<unsigned long long>(seed), keepalive ? " keep-alive" : "", per_node);
  return per_node;
}

// Keep-alive state lives in a block allocated on first use, so an overlay without
// keep-alives pays for none of it in the node itself.
TEST(DhtMemoryTest, PastryNodeStaysWithin288Bytes) {
  EXPECT_LE(sizeof(PastryNode), 288u);
}

// A ScribeNode holds its topics, its wire batcher and its default combiner; the config,
// upcalls and topic combiners are its Forest's, shared by every node.
TEST(DhtMemoryTest, ScribeNodeStaysWithin192Bytes) {
  EXPECT_LE(sizeof(ScribeNode), 192u);
}

// Measured with 24-byte route entries, routing rows packed into one exact-size
// allocation, exactly L leaf and M neighborhood entries, and keep-alive state left
// unallocated: 2,445 bytes per node at n = 1,200 (the budget sits 3% above) and 2,808
// at n = 20,000, under the 3,000-byte bar for a 10M-host overlay in ~30 GB. Empty
// slots, spare capacity or a wider entry break them.
TEST(DhtMemoryTest, Overlay1200NodesStaysInBudget) {
  EXPECT_LE(LiveBytesPerNode(1200, 101), 2520.0);
}

TEST(DhtMemoryTest, Overlay20000NodesStaysInBudget) {
  EXPECT_LE(LiveBytesPerNode(20000, 101), 3000.0);
}

// The same overlay with keep-alives running: 7,319 bytes per node one interval in (the
// budget sits 3% above). Each node's keep-alive block (ack times, the Learn memo, one
// shared beat payload) takes ~1.2 KB. The rest is the event queue holding the first
// tick's 28,800 heartbeats in flight: ~3.7 KB per node of slab slots and heap entries,
// which the queue keeps for the next burst.
TEST(DhtMemoryTest, KeepAliveOverlay1200NodesStaysInBudget) {
  EXPECT_LE(LiveBytesPerNode(1200, 101, /*keepalive=*/true), 7540.0);
}

}  // namespace
}  // namespace totoro
