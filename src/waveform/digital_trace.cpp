#include "waveform/digital_trace.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace charlie::waveform {

DigitalTrace::DigitalTrace(bool initial_value, std::vector<double> transitions)
    : initial_(initial_value), transitions_(std::move(transitions)) {
  for (std::size_t i = 1; i < transitions_.size(); ++i) {
    CHARLIE_ASSERT_MSG(transitions_[i - 1] < transitions_[i],
                       "transitions must be strictly time-ordered");
  }
}

void DigitalTrace::append_transition(double t) {
  CHARLIE_ASSERT_MSG(transitions_.empty() || t > transitions_.back(),
                     "transition must advance time");
  transitions_.push_back(t);
}

bool DigitalTrace::value_at(double t) const {
  // Count transitions at or before t.
  const auto it =
      std::upper_bound(transitions_.begin(), transitions_.end(), t);
  const std::size_t count =
      static_cast<std::size_t>(std::distance(transitions_.begin(), it));
  return initial_ != (count % 2 == 1);
}

bool DigitalTrace::final_value() const {
  return initial_ != (transitions_.size() % 2 == 1);
}

bool DigitalTrace::is_rising(std::size_t i) const {
  CHARLIE_ASSERT(i < transitions_.size());
  // Value before transition i is initial_ flipped i times; the transition
  // rises when that value is 0.
  const bool before = initial_ != (i % 2 == 1);
  return !before;
}

DigitalTrace DigitalTrace::without_short_pulses(double min_width) const {
  CHARLIE_ASSERT(min_width >= 0.0);
  // Repeatedly drop adjacent transition pairs closer than min_width;
  // removing a pair can merge its neighbours into a new short pulse, so
  // iterate to a fixed point (the classic inertial cancellation cascade).
  std::vector<double> ts = transitions_;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
      if (ts[i + 1] - ts[i] < min_width) {
        ts.erase(ts.begin() + static_cast<std::ptrdiff_t>(i),
                 ts.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        changed = true;
        break;
      }
    }
  }
  return DigitalTrace(initial_, std::move(ts));
}

DigitalTrace DigitalTrace::window(double t0, double t1) const {
  CHARLIE_ASSERT(t1 >= t0);
  DigitalTrace out(value_at(t0), {});
  for (double t : transitions_) {
    if (t > t0 && t <= t1) out.append_transition(t);
  }
  return out;
}

void merge_transitions(std::vector<IndexedTransition>& items,
                       std::vector<std::size_t>& bounds,
                       std::vector<IndexedTransition>& spare) {
  CHARLIE_ASSERT(!bounds.empty() && bounds.front() == 0 &&
                 bounds.back() == items.size());
  if (bounds.size() <= 2) return;
  // Each pass merges neighbouring runs into the other buffer, halving
  // their number: run m of the next pass is runs 2m and 2m + 1 of this one
  // (or a last odd run alone), and each bound is read before it is
  // overwritten.
  spare.resize(items.size());
  std::vector<IndexedTransition>* from = &items;
  std::vector<IndexedTransition>* to = &spare;
  while (bounds.size() > 2) {
    const auto run = [&](std::vector<IndexedTransition>* buffer,
                         std::size_t r) {
      return buffer->begin() + static_cast<std::ptrdiff_t>(bounds[r]);
    };
    std::size_t merged = 0;
    std::size_t r = 0;
    for (; r + 2 < bounds.size(); r += 2) {
      std::merge(run(from, r), run(from, r + 1), run(from, r + 1),
                 run(from, r + 2), run(to, r), precedes);
      bounds[++merged] = bounds[r + 2];
    }
    if (r + 2 == bounds.size()) {
      std::copy(run(from, r), run(from, r + 1), run(to, r));
      bounds[++merged] = bounds[r + 1];
    }
    bounds.resize(merged + 1);
    std::swap(from, to);
  }
  if (from != &items) items.swap(spare);
}

}  // namespace charlie::waveform
