// Digital (binary) signal trace: an initial value plus strictly increasing
// transition times, each flipping the value. This is the signal format the
// event-driven simulator and the deviation-area metric operate on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace charlie::waveform {

class DigitalTrace {
 public:
  DigitalTrace() = default;
  DigitalTrace(bool initial_value, std::vector<double> transitions);

  /// Append a transition; must advance time.
  void append_transition(double t);

  /// Pre-size the transition storage (capacity hint, e.g. from stimulus
  /// statistics in the event-driven simulator).
  void reserve(std::size_t n) { transitions_.reserve(n); }

  /// Reset to an empty trace with the given initial value, keeping the
  /// transition storage capacity (arena reuse across simulation runs).
  void reset(bool initial_value) {
    initial_ = initial_value;
    transitions_.clear();
  }

  /// Signal value at time t (transitions take effect at exactly t).
  bool value_at(double t) const;

  bool initial_value() const { return initial_; }
  bool final_value() const;
  const std::vector<double>& transitions() const { return transitions_; }
  std::size_t n_transitions() const { return transitions_.size(); }
  bool empty() const { return transitions_.empty(); }

  /// Direction of transition `i`: true = rising (0 -> 1).
  bool is_rising(std::size_t i) const;

  /// Remove pulse pairs shorter than `min_width` (both polarities), the way
  /// an ideal inertial filter would. Returns the filtered trace.
  DigitalTrace without_short_pulses(double min_width) const;

  /// Restrict to transitions inside [t0, t1]; the initial value becomes
  /// value_at(t0).
  DigitalTrace window(double t0, double t1) const;

 private:
  bool initial_ = false;
  std::vector<double> transitions_;
};

/// One transition of a set of traces: its time, the index of its trace in
/// the set, and the value the trace switches to.
struct IndexedTransition {
  double t = 0.0;
  std::uint32_t source = 0;
  bool value = false;
};

/// (t, source) order. Each trace's times strictly increase, so this is a
/// strict total order on the transitions of one set of traces.
inline bool precedes(const IndexedTransition& a, const IndexedTransition& b) {
  return a.t != b.t ? a.t < b.t : a.source < b.source;
}

/// Puts `items` in (t, source) order, given that they are the runs
/// [bounds[r], bounds[r + 1]) (bounds.front() == 0, bounds.back() ==
/// items.size()), each already in that order. The runs are merged pairwise
/// rather than sorted: one pass per halving of their number, between
/// `items` and `spare`, whose content is lost and whose capacity a caller
/// merging many times keeps. `bounds` is used up.
void merge_transitions(std::vector<IndexedTransition>& items,
                       std::vector<std::size_t>& bounds,
                       std::vector<IndexedTransition>& spare);

}  // namespace charlie::waveform
