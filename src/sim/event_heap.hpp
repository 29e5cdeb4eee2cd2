// Indexed binary min-heap of pending gate events, keyed by slot (gate).
//
// The event-driven engine keeps at most one scheduled firing per gate (the
// channel contract exposes one pending event at a time). A lazy-deletion
// priority queue therefore wastes work: every reschedule leaves a stale
// entry behind that must be popped, checked, and discarded later. The
// indexed heap gives each gate one slot and moves it on reschedule
// (decrease/increase-key), so superseded events never enter the queue and
// every pop is live. All operations are O(log n); cancel and schedule of
// an absent slot are O(log n) too.
//
// The keys live inline in the heap array: an entry carries (t, slot,
// value) in 16 bytes, so a sift compares and moves entries of one array no
// larger than the peak occupancy, and the only per-slot state is the slot
// -> position table it updates. Entries are ordered by (t, slot): a slot
// holds at most one entry, so this is a strict total order and the pop
// order depends neither on the heap's internal layout nor on the order in
// which events were scheduled. Slots sort like gate indices (a session's
// slot is its gate's offset in the session's range), which makes equal-time
// events fire in gate order: the engine's canonical event order
// (sim/sim_session.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace charlie::sim {

class EventHeap {
 public:
  struct Entry {
    double t = 0.0;
    std::uint32_t slot = 0;  // tie-break for equal times (lower fires first)
    bool value = false;
  };

  /// Drop all events and size the heap for slots [0, n_slots).
  void reset(std::size_t n_slots);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(std::size_t slot) const { return pos_[slot] >= 0; }

  /// Insert `slot` or move its key; the heap re-sorts in either direction.
  void schedule(std::size_t slot, double t, bool value);

  /// Remove `slot`'s event if present (no-op otherwise).
  void cancel(std::size_t slot);

  /// Slot and payload of the earliest event. Requires !empty().
  std::size_t top_slot() const { return heap_[0].slot; }
  const Entry& top() const { return heap_[0]; }

  /// Remove the earliest event. Requires !empty().
  void pop();

 private:
  static bool before(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.slot < b.slot;
  }
  void place(std::size_t i, const Entry& entry) {
    heap_[i] = entry;
    pos_[entry.slot] = static_cast<int>(i);
  }
  void sift(std::size_t i, Entry entry);
  void sift_up(std::size_t i, Entry entry);
  void sift_down(std::size_t i, Entry entry);

  std::vector<Entry> heap_;  // binary heap ordered by (t, slot)
  std::vector<int> pos_;     // slot -> heap position, -1 when absent
};

static_assert(sizeof(EventHeap::Entry) == 16,
              "heap entries must stay 16 bytes");

}  // namespace charlie::sim
