#include "sim/event_heap.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "util/error.hpp"

namespace charlie::sim {
namespace {

TEST(EventHeap, BasicScheduleAndPop) {
  EventHeap h;
  h.reset(4);
  EXPECT_TRUE(h.empty());
  h.schedule(2, 3.0, true);
  h.schedule(0, 1.0, false);
  h.schedule(3, 2.0, true);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.top_slot(), 0u);
  EXPECT_DOUBLE_EQ(h.top().t, 1.0);
  EXPECT_FALSE(h.top().value);
  h.pop();
  EXPECT_EQ(h.top_slot(), 3u);
  h.pop();
  EXPECT_EQ(h.top_slot(), 2u);
  h.pop();
  EXPECT_TRUE(h.empty());
}

TEST(EventHeap, RescheduleMovesInBothDirections) {
  EventHeap h;
  h.reset(3);
  h.schedule(0, 10.0, false);
  h.schedule(1, 20.0, false);
  h.schedule(2, 30.0, false);
  // Decrease-key: slot 2 jumps to the front.
  h.schedule(2, 5.0, true);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.top_slot(), 2u);
  EXPECT_TRUE(h.top().value);
  // Increase-key: slot 2 drops to the back.
  h.schedule(2, 40.0, true);
  EXPECT_EQ(h.top_slot(), 0u);
}

TEST(EventHeap, EqualTimesBreakTiesBySlot) {
  // Equal times pop in slot order, whatever order they were scheduled in:
  // the key (t, slot) is a strict total order.
  for (const std::vector<std::size_t>& order :
       {std::vector<std::size_t>{1, 0, 2}, std::vector<std::size_t>{2, 1, 0},
        std::vector<std::size_t>{0, 2, 1}}) {
    EventHeap h;
    h.reset(4);
    h.schedule(3, 0.5, false);
    for (const std::size_t slot : order) h.schedule(slot, 1.0, false);
    // A reschedule to the same time keeps the slot's place in the order.
    h.schedule(order.front(), 1.0, true);
    EXPECT_EQ(h.top_slot(), 3u);
    h.pop();
    EXPECT_EQ(h.top_slot(), 0u);
    h.pop();
    EXPECT_EQ(h.top_slot(), 1u);
    h.pop();
    EXPECT_EQ(h.top_slot(), 2u);
    h.pop();
    EXPECT_TRUE(h.empty());
  }
}

TEST(EventHeap, CancelRemovesAndTolerated) {
  EventHeap h;
  h.reset(4);
  h.schedule(0, 1.0, false);
  h.schedule(1, 2.0, false);
  h.cancel(0);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_FALSE(h.contains(0));
  h.cancel(0);  // no-op
  h.cancel(3);  // never scheduled: no-op
  EXPECT_EQ(h.top_slot(), 1u);
  h.schedule(0, 0.5, true);  // re-insert after cancel
  EXPECT_EQ(h.top_slot(), 0u);
}

TEST(EventHeap, ResetDropsEverything) {
  EventHeap h;
  h.reset(2);
  h.schedule(0, 1.0, false);
  h.reset(2);
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(0));
}

// Differential test: random schedule/cancel/pop against a map-based
// reference ordered by (t, slot). Times come from a coarse grid, so equal
// times -- and with them the slot tie-break -- are common.
TEST(EventHeap, RandomizedAgainstReference) {
  constexpr std::size_t kSlots = 29;
  EventHeap h;
  h.reset(kSlots);
  std::map<std::pair<double, std::size_t>, std::size_t> reference;
  std::map<std::size_t, std::pair<double, std::size_t>> by_slot;
  std::mt19937_64 rng(12345);
  for (int step = 0; step < 20000; ++step) {
    const std::size_t slot = rng() % kSlots;
    switch (rng() % 4) {
      case 0:
      case 1: {  // schedule / reschedule
        const double t = static_cast<double>(rng() % 64) / 64.0;
        if (by_slot.count(slot)) reference.erase(by_slot[slot]);
        const auto key = std::make_pair(t, slot);
        reference[key] = slot;
        by_slot[slot] = key;
        h.schedule(slot, t, false);
        break;
      }
      case 2: {  // cancel
        if (by_slot.count(slot)) {
          reference.erase(by_slot[slot]);
          by_slot.erase(slot);
        }
        h.cancel(slot);
        break;
      }
      case 3: {  // pop
        ASSERT_EQ(h.empty(), reference.empty());
        if (!reference.empty()) {
          const auto it = reference.begin();
          EXPECT_EQ(h.top_slot(), it->second);
          EXPECT_DOUBLE_EQ(h.top().t, it->first.first);
          by_slot.erase(it->second);
          reference.erase(it);
          h.pop();
        }
        break;
      }
    }
    ASSERT_EQ(h.size(), reference.size());
  }
  // Drain and verify full ordering.
  while (!reference.empty()) {
    const auto it = reference.begin();
    ASSERT_FALSE(h.empty());
    EXPECT_EQ(h.top_slot(), it->second);
    reference.erase(it);
    h.pop();
  }
  EXPECT_TRUE(h.empty());
}

}  // namespace
}  // namespace charlie::sim
