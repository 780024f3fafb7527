// Thread-pool harness for running independent simulation trials in parallel.
//
// Every bench in this repository is a set of self-contained trials: each builds its own
// Simulator/Network/engine world from a numeric seed and returns plain values. Because
// the observability globals (tracer, metrics registry, virtual clock) are
// thread-local and trials derive ALL randomness from their seed, trials can run on any
// thread in any order and still produce bit-identical results — ParallelFor only decides
// wall-clock scheduling, never outcomes. Results are written by trial index, so the
// collected vector is also independent of thread count (the determinism test suite
// asserts parallel == sequential).
//
// Thread count: TOTORO_BENCH_THREADS env var when set, else the CPUs this process may
// run on.
// `threads == 1` (or a single-core machine) degrades to a plain inline loop.
#ifndef BENCH_PARALLEL_RUNNER_H_
#define BENCH_PARALLEL_RUNNER_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace totoro {
namespace bench {

// Worker-thread count: TOTORO_BENCH_THREADS if set to a positive integer, else
// AvailableCpus() (src/common/env.h).
size_t DefaultBenchThreads();

// Invokes fn(0) .. fn(n-1), distributing indices across `threads` worker threads
// (0 = DefaultBenchThreads()). Blocks until every call returns. Runs inline without
// spawning when one thread suffices. If any invocation throws, the first exception is
// rethrown here after all workers finish; remaining indices may be skipped.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn, size_t threads = 0);

// Runs `trial(i)` for i in [0, n) via ParallelFor and returns the results in trial
// order (index i at slot i, regardless of which thread ran it). R must be
// default-constructible and movable.
template <typename R, typename Fn>
std::vector<R> RunTrials(size_t n, Fn&& trial, size_t threads = 0) {
  std::vector<R> out(n);
  ParallelFor(
      n, [&](size_t i) { out[i] = trial(i); }, threads);
  return out;
}

}  // namespace bench
}  // namespace totoro

#endif  // BENCH_PARALLEL_RUNNER_H_
