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
// The keys live inline in the heap array: an entry carries (t, seq, slot,
// value), so a sift compares and moves entries of one array no larger than
// the peak occupancy, and the only per-slot state is the slot -> position
// table it updates. (t, seq) is a strict total order (seq is unique), so
// the pop order does not depend on the heap's internal layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace charlie::sim {

class EventHeap {
 public:
  struct Entry {
    double t = 0.0;
    long seq = 0;  // FIFO tie-break for equal times (later schedule loses)
    std::uint32_t slot = 0;
    bool value = false;
  };

  /// Drop all events and size the heap for slots [0, n_slots).
  void reset(std::size_t n_slots);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(std::size_t slot) const { return pos_[slot] >= 0; }

  /// Insert `slot` or move its key; the heap re-sorts in either direction.
  void schedule(std::size_t slot, double t, long seq, bool value);

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
    return a.seq < b.seq;
  }
  void place(std::size_t i, const Entry& entry) {
    heap_[i] = entry;
    pos_[entry.slot] = static_cast<int>(i);
  }
  void sift(std::size_t i, Entry entry);
  void sift_up(std::size_t i, Entry entry);
  void sift_down(std::size_t i, Entry entry);

  std::vector<Entry> heap_;  // binary heap ordered by (t, seq)
  std::vector<int> pos_;     // slot -> heap position, -1 when absent
};

}  // namespace charlie::sim
