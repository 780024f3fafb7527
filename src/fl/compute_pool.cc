#include "src/fl/compute_pool.h"

#include <atomic>
#include <exception>
#include <utility>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/obs/profiler.h"

namespace totoro {

struct ComputePool::Ticket::State {
  Task task;
  std::atomic<bool> claimed{false};
  // The task's own phase tree, present when the owner's profiler was on at Submit; the
  // first Wait folds it under `profile_parent`, the owner's phase open at Submit.
  std::unique_ptr<Profiler> profile;
  size_t profile_parent = 0;

  Mutex mu;
  CondVar cv;
  bool done TOTORO_GUARDED_BY(mu) = false;
  std::exception_ptr error TOTORO_GUARDED_BY(mu);

  bool Done() {
    MutexLock lock(&mu);
    return done;
  }

  // Runs the task on `slot` unless another thread claimed it first; false if one did.
  bool TryRun(size_t slot) {
    if (claimed.exchange(true)) {
      return false;
    }
    std::exception_ptr err;
    {
      ProfileCapture capture(profile.get());
      ProfileScope profile_task("compute_task");
      try {
        task(slot);
      } catch (...) {
        err = std::current_exception();
      }
    }
    task = nullptr;  // Release captured payloads promptly.
    {
      MutexLock lock(&mu);
      error = err;
      done = true;
    }
    cv.NotifyAll();
    return true;
  }
};

void ComputePool::Ticket::Wait() const {
  CHECK(state_ != nullptr);
  State& state = *state_;
  // A task that is not done is queued or running, so its pool is still alive (the
  // pool's destructor finishes every task).
  if (!state.TryRun(0) && !state.Done()) {
    pool_->HelpUntilDone(state);
  }
  std::exception_ptr error;
  {
    MutexLock lock(&state.mu);
    error = state.error;
  }
  if (state.profile != nullptr) {
    GlobalProfiler().MergeFrom(*state.profile, state.profile_parent);
    state.profile.reset();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

ComputePool::ComputePool(size_t threads) {
  for (size_t slot = 1; slot < threads; ++slot) {
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
}

ComputePool::~ComputePool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) {
    worker.join();
  }
}

ComputePool::Ticket ComputePool::Submit(Task task) {
  CHECK(task != nullptr);
  auto state = std::make_shared<Ticket::State>();
  state->task = std::move(task);
  const Profiler& profiler = GlobalProfiler();
  if (profiler.enabled()) {
    state->profile = std::make_unique<Profiler>();
    state->profile->SetEnabled(true);
    state->profile_parent = profiler.current_phase();
  }
  ++tasks_submitted_;
  if (workers_.empty()) {
    state->TryRun(0);
  } else {
    {
      MutexLock lock(&mu_);
      queue_.push_back(state);
    }
    cv_.NotifyOne();
  }
  return Ticket(this, std::move(state));
}

void ComputePool::HelpUntilDone(Ticket::State& state) {
  for (;;) {
    std::shared_ptr<Ticket::State> next;
    {
      MutexLock lock(&mu_);
      if (queue_.empty()) {
        break;
      }
      next = std::move(queue_.front());
      queue_.pop_front();
    }
    next->TryRun(0);
    if (state.Done()) {
      return;
    }
  }
  MutexLock lock(&state.mu);
  while (!state.done) {
    state.cv.Wait(state.mu);
  }
}

void ComputePool::WorkerLoop(size_t slot) {
  for (;;) {
    std::shared_ptr<Ticket::State> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) {
        cv_.Wait(mu_);
      }
      if (queue_.empty()) {
        break;  // stopping_ with a drained queue.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task->TryRun(slot);
  }
}

size_t ComputePool::ThreadsFromEnv() {
  return EnvThreadCount("TOTORO_COMPUTE_THREADS", AvailableCpus());
}

Model& ModelReplicas::For(size_t slot) {
  CHECK_LT(slot, replicas_.size());
  std::unique_ptr<Model>& replica = replicas_[slot];
  if (replica == nullptr) {
    replica = source_->Clone();
  }
  return *replica;
}

}  // namespace totoro
