#include "sim/event_heap.hpp"

#include "util/error.hpp"

namespace charlie::sim {

void EventHeap::reset(std::size_t n_slots) {
  pos_.assign(n_slots, -1);
  heap_.clear();
}

void EventHeap::schedule(std::size_t slot, double t, long seq, bool value) {
  CHARLIE_ASSERT(slot < pos_.size());
  const Entry entry{t, seq, static_cast<std::uint32_t>(slot), value};
  if (pos_[slot] < 0) {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1, entry);
    return;
  }
  sift(static_cast<std::size_t>(pos_[slot]), entry);
}

void EventHeap::cancel(std::size_t slot) {
  CHARLIE_ASSERT(slot < pos_.size());
  if (pos_[slot] < 0) return;
  const auto i = static_cast<std::size_t>(pos_[slot]);
  pos_[slot] = -1;
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) sift(i, moved);  // unless it removed the last entry
}

void EventHeap::pop() {
  CHARLIE_ASSERT(!heap_.empty());
  cancel(heap_[0].slot);
}

void EventHeap::sift(std::size_t i, Entry entry) {
  // An entry placed at i moves one way only: up past a later parent, or
  // down.
  if (i > 0 && before(entry, heap_[(i - 1) / 2])) {
    sift_up(i, entry);
  } else {
    sift_down(i, entry);
  }
}

void EventHeap::sift_up(std::size_t i, Entry entry) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(entry, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

void EventHeap::sift_down(std::size_t i, Entry entry) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], entry)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, entry);
}

}  // namespace charlie::sim
