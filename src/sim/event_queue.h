// Priority event queue for the discrete-event simulator.
//
// Events fire in (time, key) order. The simulator gives every event a canonical 64-bit
// key — (origin, per-origin sequence) packed, see simulator.h — so a queue's pop order
// is a pure function of the event population, never of push order or shard count. Keys
// are unique by construction, so (at, key) is a strict total order with no ties left
// to break. Each entry also carries the host the event executes AS (`exec_host`); the
// run loop re-establishes that identity before invoking the callback.
//
// The implementation is allocation-free in steady state:
//
//  - Callbacks live in a free-list slab of EventSlot records; scheduling acquires a
//    slot (reusing a freed one when available), firing releases it. The callback is an
//    EventFn (see event_fn.h), so captures up to EventFn::kInlineSize bytes never touch
//    the heap and popping MOVES the callback out of the slab.
//  - Cancellation is a (slot, generation) handle resolved against the slab: O(1), no
//    per-event shared_ptr<bool>. The generation counter bumps every time a slot is
//    released, so a stale handle (event already fired or skipped) can never cancel the
//    slot's next tenant. Handles stay safe after the queue itself dies — they hold a
//    weak_ptr to the slab (one allocation per QUEUE, not per event).
//  - The heap is an explicit 4-ary heap over 24-byte (time, key, slot, exec_host)
//    entries: sift operations move small PODs, and a 4-ary layout halves the depth.
//
// Cancelled events are dropped lazily when they surface at the front (PeekTime/PopNext),
// so Size() counts cancelled-but-unpopped events.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_fn.h"

namespace totoro {

using SimTime = double;  // Virtual milliseconds.
inline constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();

namespace internal {

inline constexpr uint32_t kNilSlot = UINT32_MAX;

struct EventSlot {
  EventFn fn;
  uint32_t generation = 0;
  uint32_t next_free = kNilSlot;
  bool cancelled = false;
};

struct EventSlab {
  std::vector<EventSlot> slots;
  uint32_t free_head = kNilSlot;
  // Cancels that actually took effect (pending event marked dead), ever.
  uint64_t cancelled_total = 0;
};

}  // namespace internal

// Cancellation handle for one scheduled event. Copyable; all copies refer to the same
// event. Safe to use after the event fired (no-op) and after the owning queue was
// destroyed (no-op) — the generation check resolves both without dangling.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it is still pending. Returns true iff this call is the one
  // that cancelled it (false when already fired, already cancelled, or queue gone).
  bool Cancel();

  // True while the event is pending-and-cancelled (not yet lazily removed). Once the
  // queue skips or releases it — or the queue is destroyed — this reverts to false.
  bool IsCancelled() const;

 private:
  friend class EventQueue;
  EventHandle(std::weak_ptr<internal::EventSlab> slab, uint32_t slot, uint32_t generation)
      : slab_(std::move(slab)), slot_(slot), generation_(generation) {}

  std::weak_ptr<internal::EventSlab> slab_;
  uint32_t slot_ = internal::kNilSlot;
  uint32_t generation_ = 0;
};

class EventQueue {
 public:
  EventQueue() : slab_(std::make_shared<internal::EventSlab>()) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  EventHandle Push(SimTime at, uint64_t key, uint32_t exec_host, EventFn&& fn);
  // Push without a cancellation handle, for events nothing cancels (message arrivals):
  // it skips the handle's weak_ptr copy and release.
  void Post(SimTime at, uint64_t key, uint32_t exec_host, EventFn&& fn) {
    Insert(at, key, exec_host, std::move(fn));
  }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Discards cancelled events at the front, then reports the earliest live event's
  // time. Returns false when no live event remains.
  bool PeekTime(SimTime* at);

  // Pops the earliest non-cancelled event into (*at, *exec_host, *fn) without running
  // it, so the caller can advance its clock first. The callback is MOVED out of the
  // slab, never copied. Returns false, writing nothing, when no live event fires
  // before `end`.
  bool PopNext(SimTime* at, uint32_t* exec_host, EventFn* fn, SimTime end = kNever);

  // Convenience for tests: pops and immediately runs.
  bool PopAndRun(SimTime* fired_at);

  // Pre-sizes the heap and slab for `n` concurrently pending events so steady-state
  // scheduling never reallocates.
  void Reserve(size_t n);

  // Cancels that took effect over the queue's lifetime (whether or not the dead entry
  // has been lazily popped yet).
  uint64_t cancelled_total() const { return slab_->cancelled_total; }
  // Slots ever created — stays flat under schedule/fire churn because freed slots are
  // reused before the slab grows.
  size_t slab_size() const { return slab_->slots.size(); }

 private:
  struct HeapEntry {
    SimTime at;
    uint64_t key;
    uint32_t slot;
    uint32_t exec_host;
  };

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.at < b.at || (a.at == b.at && a.key < b.key);
  }

  // Stores the event and returns its slab slot.
  uint32_t Insert(SimTime at, uint64_t key, uint32_t exec_host, EventFn&& fn);
  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  void RemoveTop();
  void SiftUp(size_t i);
  void SiftDown(size_t i);

  std::shared_ptr<internal::EventSlab> slab_;
  std::vector<HeapEntry> heap_;
};

}  // namespace totoro

#endif  // SRC_SIM_EVENT_QUEUE_H_
