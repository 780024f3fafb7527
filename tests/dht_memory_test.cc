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
// Reserve to just after BuildOracle.
double LiveBytesPerNode(size_t nodes, uint64_t seed) {
  Simulator sim;
  Network net(&sim, std::make_unique<PairwiseUniformLatency>(2.0, 40.0, seed ^ 0xFEED));
  PastryNetwork pastry(&net, PastryConfig{});
  Rng rng(seed);
  const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  pastry.Reserve(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    pastry.AddRandomNode(rng);
  }
  pastry.BuildOracle(rng);
  const int64_t grown = g_live_bytes.load(std::memory_order_relaxed) - before;
  const double per_node = static_cast<double>(grown) / static_cast<double>(nodes);
  std::printf("n=%zu seed=%llu: %.0f live bytes per node\n", nodes,
              static_cast<unsigned long long>(seed), per_node);
  return per_node;
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

}  // namespace
}  // namespace totoro
