#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/prefetch.h"

namespace totoro {

bool EventHandle::Cancel() {
  const std::shared_ptr<internal::EventSlab> slab = slab_.lock();
  if (slab == nullptr || slot_ >= slab->slots.size()) {
    return false;
  }
  internal::EventSlot& s = slab->slots[slot_];
  if (s.generation != generation_ || s.cancelled) {
    return false;  // Already fired/skipped (slot reused or pending reuse), or cancelled.
  }
  s.cancelled = true;
  ++slab->cancelled_total;
  return true;
}

bool EventHandle::IsCancelled() const {
  const std::shared_ptr<internal::EventSlab> slab = slab_.lock();
  if (slab == nullptr || slot_ >= slab->slots.size()) {
    return false;
  }
  const internal::EventSlot& s = slab->slots[slot_];
  return s.generation == generation_ && s.cancelled;
}

uint32_t EventQueue::AcquireSlot() {
  internal::EventSlab& slab = *slab_;
  if (slab.free_head != internal::kNilSlot) {
    const uint32_t slot = slab.free_head;
    slab.free_head = slab.slots[slot].next_free;
    slab.slots[slot].next_free = internal::kNilSlot;
    return slot;
  }
  CHECK_LT(slab.slots.size(), static_cast<size_t>(UINT32_MAX));
  slab.slots.emplace_back();
  return static_cast<uint32_t>(slab.slots.size() - 1);
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  internal::EventSlot& s = slab_->slots[slot];
  s.fn.Reset();
  s.cancelled = false;
  ++s.generation;  // Invalidates every outstanding handle to the old tenant.
  s.next_free = slab_->free_head;
  slab_->free_head = slot;
}

void EventQueue::SiftUp(size_t i) {
  HeapEntry entry = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Earlier(entry, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  HeapEntry entry = heap_[i];
  while (true) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= n) {
      break;
    }
    // Smallest of up to 4 children — they are contiguous, typically one cache line.
    size_t best = first_child;
    const size_t last_child = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], entry)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

uint32_t EventQueue::Insert(SimTime at, uint64_t key, uint32_t exec_host, EventFn&& fn) {
  const uint32_t slot = AcquireSlot();
  slab_->slots[slot].fn = std::move(fn);
  heap_.push_back(HeapEntry{at, key, slot, exec_host});
  SiftUp(heap_.size() - 1);
  return slot;
}

EventHandle EventQueue::Push(SimTime at, uint64_t key, uint32_t exec_host, EventFn&& fn) {
  const uint32_t slot = Insert(at, key, exec_host, std::move(fn));
  return EventHandle(slab_, slot, slab_->slots[slot].generation);
}

bool EventQueue::PeekTime(SimTime* at) {
  while (!heap_.empty()) {
    const uint32_t slot = heap_[0].slot;
    if (!slab_->slots[slot].cancelled) {
      *at = heap_[0].at;
      return true;
    }
    RemoveTop();
    ReleaseSlot(slot);
  }
  return false;
}

bool EventQueue::PopNext(SimTime* at, uint32_t* exec_host, EventFn* fn, SimTime end) {
  // A cancelled front is dropped on the way, so it can never let a later event slip
  // past `end`.
  while (!heap_.empty() && heap_[0].at < end) {
    const HeapEntry top = heap_[0];
    RemoveTop();
    // The next pop reads the new top's slot, most likely a cold line when many events
    // pend; start loading it while this event runs.
    if (!heap_.empty()) {
      PrefetchReadRange(&slab_->slots[heap_[0].slot], sizeof(internal::EventSlot));
    }
    internal::EventSlot& s = slab_->slots[top.slot];
    const bool cancelled = s.cancelled;
    if (!cancelled) {
      *at = top.at;
      *exec_host = top.exec_host;
      *fn = std::move(s.fn);
    }
    ReleaseSlot(top.slot);
    if (!cancelled) {
      return true;
    }
  }
  return false;
}

void EventQueue::RemoveTop() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
}

bool EventQueue::PopAndRun(SimTime* fired_at) {
  SimTime at = 0;
  uint32_t exec_host = 0;
  EventFn fn;
  if (!PopNext(&at, &exec_host, &fn)) {
    return false;
  }
  if (fired_at != nullptr) {
    *fired_at = at;
  }
  fn();
  return true;
}

void EventQueue::Reserve(size_t n) {
  heap_.reserve(n);
  slab_->slots.reserve(n);
}

}  // namespace totoro
