// Clang thread-safety annotations + an annotated Mutex/CondVar wrapper.
//
// The repo's concurrency surface is deliberately small — the ComputePool's task
// queue, the simulator's K>1 window barrier, and the bench runner's error slot —
// but PR 9's thread-locality bug sweep showed that "small" is not "safe by
// inspection". These macros attach the lock discipline to the code itself so Clang's
// -Wthread-safety analysis (enabled whenever the compiler is Clang; promoted to an
// error by TOTORO_WERROR in the dedicated CI job) proves at compile time that every
// access to a TOTORO_GUARDED_BY member happens with its mutex held. GCC expands the
// annotations to nothing, so the single-compiler analysis gates CI without
// constraining local builds.
//
// Discipline:
//  - Every std::mutex in src/ is replaced by totoro::Mutex below (the raw type has no
//    capability attribute, so the analysis cannot see it). lint R7 keeps ambient
//    mutable statics out of the deterministic directories; the analysis covers the
//    explicitly-shared remainder.
//  - Guarded members carry TOTORO_GUARDED_BY(mu_); functions that expect the caller
//    to hold a lock carry TOTORO_REQUIRES(mu_).
//  - Condition waits go through CondVar::Wait(mu) inside an explicit while(pred)
//    loop in the annotated caller — never a predicate lambda, which the analysis
//    would treat as an unannotated function and flag every guarded access inside.
#ifndef SRC_COMMON_THREAD_ANNOTATIONS_H_
#define SRC_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define TOTORO_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TOTORO_THREAD_ANNOTATION(x)
#endif

// Type attributes.
#define TOTORO_CAPABILITY(x) TOTORO_THREAD_ANNOTATION(capability(x))
#define TOTORO_SCOPED_CAPABILITY TOTORO_THREAD_ANNOTATION(scoped_lockable)

// Member attributes.
#define TOTORO_GUARDED_BY(x) TOTORO_THREAD_ANNOTATION(guarded_by(x))
#define TOTORO_PT_GUARDED_BY(x) TOTORO_THREAD_ANNOTATION(pt_guarded_by(x))
#define TOTORO_ACQUIRED_BEFORE(...) TOTORO_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define TOTORO_ACQUIRED_AFTER(...) TOTORO_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function attributes.
#define TOTORO_REQUIRES(...) TOTORO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define TOTORO_ACQUIRE(...) TOTORO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TOTORO_RELEASE(...) TOTORO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TOTORO_TRY_ACQUIRE(...) TOTORO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TOTORO_EXCLUDES(...) TOTORO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define TOTORO_RETURN_CAPABILITY(x) TOTORO_THREAD_ANNOTATION(lock_returned(x))
#define TOTORO_NO_THREAD_SAFETY_ANALYSIS TOTORO_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace totoro {

class CondVar;

// std::mutex wearing Clang's capability attribute. Same cost, same semantics; the
// only addition is that the analysis can now name the lock.
class TOTORO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TOTORO_ACQUIRE() { mu_.lock(); }
  void Unlock() TOTORO_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock scope for Mutex (the analysis tracks scoped_lockable acquisition through
// early returns and breaks, so `{ MutexLock lock(&mu_); ... }` is the idiom).
class TOTORO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TOTORO_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() TOTORO_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable for Mutex. Wait() REQUIRES the caller to hold `mu` and holds it
// again on return, so callers keep the canonical shape the analysis can check:
//
//   MutexLock lock(&mu_);
//   while (!condition_on_guarded_state) {
//     cv_.Wait(mu_);
//   }
//
// (The predicate is evaluated in the annotated caller, not in a lambda.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, waits, and re-acquires `mu` before returning. Spurious
  // wakeups happen; always wrap in a while(pred) loop.
  void Wait(Mutex& mu) TOTORO_REQUIRES(mu) {
    // Adopt the already-held mutex for the wait, then release the std::unique_lock
    // wrapper so it does not unlock on destruction — ownership stays with the caller
    // exactly as the annotation promises.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace totoro

#endif  // SRC_COMMON_THREAD_ANNOTATIONS_H_
