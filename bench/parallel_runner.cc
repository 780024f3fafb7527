#include "bench/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

#include "src/common/env.h"
#include "src/common/thread_annotations.h"

namespace totoro {
namespace bench {

size_t DefaultBenchThreads() { return EnvThreadCount("TOTORO_BENCH_THREADS", AvailableCpus()); }

void ParallelFor(size_t n, const std::function<void(size_t)>& fn, size_t threads) {
  if (n == 0) {
    return;
  }
  if (threads == 0) {
    threads = DefaultBenchThreads();
  }
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  std::atomic<size_t> next{0};
  Mutex error_mu;
  std::exception_ptr first_error;  // Guarded by error_mu until the pool joins.
  auto worker = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(&error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
        // Drain the remaining indices so sibling workers exit promptly.
        next.store(n, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (auto& th : pool) {
    th.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace bench
}  // namespace totoro
