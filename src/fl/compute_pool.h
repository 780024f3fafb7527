// Deterministic parallel compute for the FL work inside one world.
//
// The simulator is single-threaded by contract; what dominates the TTA benches'
// wall-clock is not event dispatch but the real CPU work inside events — the
// LocalTrainer::Train calls the engine runs when a round's broadcast reaches its
// workers, and the master's evaluation when a round closes. Those calls are mutually
// independent (per-trainer shard and RNG, a per-slot model replica; no thread-local
// tracer/metrics/log access), so they can run on other threads while virtual time
// stands still.
//
// Determinism contract (the same guarantee bench/parallel_runner gives whole trials,
// applied inside one engine): Submit() returns a Ticket immediately; the caller
// schedules a *rejoin* event at the client's virtual-time completion stamp, which
// Wait()s on the ticket and folds the result into the event stream. Everything the
// schedule depends on (the completion stamp, work accounting, trace spans) is computed
// from inputs available BEFORE the task runs, so the sequence of Schedule() calls —
// and therefore event order, traces and metrics — is bit-identical for any thread
// count, including the inline mode that never spawns a thread.
//
// Threads. A pool of N compute threads is its owner — the thread that submits and
// waits, the simulator thread — plus N - 1 workers. N comes from
// TOTORO_COMPUTE_THREADS and defaults to the number of CPUs this process may run on.
// N = 1 is inline: Submit() runs the task at once and no thread starts. A waiter does
// not sleep while there is work: Wait() runs its own task when no worker has claimed
// it, and otherwise runs queued tasks until its own is done. A claim flag makes every
// task run exactly once.
//
// Slots. Each task receives its execution slot: 0 for the owner, 1..N-1 for the
// workers. A slot runs one task at a time, so a task may use per-slot state (its
// ModelReplicas entry) without a lock.
//
// Profiles. While the owner's profiler is on, each task records its phases into a
// profile of its own, whichever thread runs it, and the first Wait() folds that
// profile into the owner's tree under the phase that was open at Submit(). The tree
// then has the same paths and call counts at every thread count.
#ifndef SRC_FL_COMPUTE_POOL_H_
#define SRC_FL_COMPUTE_POOL_H_

#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/ml/model.h"

namespace totoro {

class ComputePool {
 public:
  // Runs once, on execution slot `slot`.
  using Task = std::function<void(size_t slot)>;

  // Handle to one submitted task. Copyable (shared state); empty tickets are
  // valid() == false. Tickets are waited on by the pool's owner thread only.
  class Ticket {
   public:
    Ticket() = default;

    bool valid() const { return state_ != nullptr; }
    // Returns once the task has run, running it or other queued tasks on this thread
    // meanwhile, and rethrows any exception the task threw. Idempotent.
    void Wait() const;

   private:
    friend class ComputePool;
    struct State;
    Ticket(ComputePool* pool, std::shared_ptr<State> state)
        : pool_(pool), state_(std::move(state)) {}
    ComputePool* pool_ = nullptr;
    std::shared_ptr<State> state_;
  };

  // `threads` counts the owner: threads <= 1 selects inline mode, where Submit() runs
  // the task on the calling thread and no worker thread exists at all.
  explicit ComputePool(size_t threads);
  // Workers finish every queued task before they exit, so no ticket is left undone.
  ~ComputePool();
  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  Ticket Submit(Task task);

  size_t threads() const { return workers_.size() + 1; }
  // Tasks accepted so far (deterministic: counted at Submit on the owner thread).
  uint64_t tasks_submitted() const { return tasks_submitted_; }

  // Parses TOTORO_COMPUTE_THREADS (>= 1); when unset, the number of CPUs this process
  // may run on (sched_getaffinity, else std::thread::hardware_concurrency()).
  static size_t ThreadsFromEnv();

 private:
  void WorkerLoop(size_t slot);
  // Runs queued tasks on the owner's slot until `state` is done; sleeps once the
  // queue is empty (only the owner submits, so it cannot refill while we wait).
  void HelpUntilDone(Ticket::State& state);

  std::vector<std::thread> workers_;
  uint64_t tasks_submitted_ = 0;

  Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<Ticket::State>> queue_ TOTORO_GUARDED_BY(mu_);
  bool stopping_ TOTORO_GUARDED_BY(mu_) = false;
};

// One model replica per execution slot of a ComputePool, for tasks that borrow a model
// instead of owning one. A slot's replica is cloned from `source` by the slot's own
// thread on first use, so `source` must not change while tasks run. The replica
// contract in src/ml/model.h makes a borrowed replica as good as a private model.
class ModelReplicas {
 public:
  ModelReplicas(const Model* source, size_t slots) : source_(source), replicas_(slots) {}

  Model& For(size_t slot);
  // Re-sizes to a new slot count; call only while no task is in flight.
  void Resize(size_t slots) { replicas_.resize(slots); }

 private:
  const Model* source_;
  std::vector<std::unique_ptr<Model>> replicas_;
};

}  // namespace totoro

#endif  // SRC_FL_COMPUTE_POOL_H_
