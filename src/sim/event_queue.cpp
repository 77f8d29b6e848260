#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace paldia::sim {

void EventHandle::cancel() {
  if (queue_ != nullptr && queue_->cancel_entry(index_, generation_)) {
    cancelled_ = true;
  }
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNoSlot;
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = EventFn{};
  ++slot.generation;  // invalidates every outstanding handle to this slot
  slot.state = SlotState::kFree;
  slot.next_free = free_head_;
  free_head_ = index;
}

EventHandle EventQueue::schedule(TimeMs t, EventFn fn) {
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.state = SlotState::kPending;
  ++live_;
  heap_.push_back(Entry{t, next_sequence_++, index, slot.generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle(this, index, slot.generation);
}

bool EventQueue::cancel_entry(std::uint32_t index, std::uint32_t generation) {
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (slot.generation != generation) return false;  // slot already recycled
  if (slot.state == SlotState::kPending) {
    slot.state = SlotState::kCancelled;
    slot.fn = EventFn{};  // release captures now; the heap tombstone is inert
    --live_;
    return true;
  }
  return false;  // already cancelled
}

EventQueue::Entry EventQueue::take_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry item = heap_.back();
  heap_.pop_back();
  return item;
}

void EventQueue::collect_dead(const Entry& entry) {
  // A generation mismatch means the slot was already recycled (the item is
  // a pure tombstone); a match means this collects the cancelled entry.
  if (slots_[entry.index].generation == entry.generation) {
    release_slot(entry.index);
  }
}

void EventQueue::drop_cancelled() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    const Slot& slot = slots_[top.index];
    if (slot.generation == top.generation && slot.state == SlotState::kPending) {
      return;  // live event on top
    }
    collect_dead(take_top());
  }
}

TimeMs EventQueue::next_time() {
  drop_cancelled();
  return heap_.empty() ? kTimeNever : heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled();
  assert(!heap_.empty());
  const Entry top = take_top();
  Slot& slot = slots_[top.index];
  Fired fired{top.time, std::move(slot.fn)};
  release_slot(top.index);
  --live_;
  return fired;
}

void EventQueue::clear() {
  for (const Entry& item : heap_) {
    Slot& slot = slots_[item.index];
    if (slot.generation == item.generation && slot.state != SlotState::kFree) {
      if (slot.state == SlotState::kPending) --live_;
      release_slot(item.index);
    }
  }
  heap_.clear();
  assert(live_ == 0);
  live_ = 0;
}

}  // namespace paldia::sim
