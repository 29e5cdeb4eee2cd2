// Resumable event-driven simulation session over a range of gates.
//
// SimSession is the only way into the event loop: Circuit::simulate runs
// one session over every gate, BatchRunner one per run over its worker's
// trace arena, and the sharded circuit runner (sim/sharded_circuit.hpp)
// one per shard over a contiguous gate range of a shared Circuit, advanced
// one conservative window quantum at a time with the transitions of
// upstream shards injected between advances. A session borrows the channel
// state of the gates in its range, so at most one session may be active
// per gate at a time; sessions over disjoint ranges of one Circuit may run
// concurrently.
//
// Gate ranges: a Circuit's gates are in topological order by construction
// (every input net exists before the gate that reads it), so a contiguous
// range [gate_begin, gate_end) reads only primary inputs, nets of earlier
// gates, and its own nets. A range session queues the stimulus transitions
// of the primary inputs its gates read, takes transitions of upstream
// gates' nets through inject(net, t, value), walks only the in-range part
// of each fanout list, and records only the nets its gates drive. A
// session over every gate is the whole engine: it queues and records
// every primary input as well.
//
// Window convention (same as Circuit::simulate): construction settles the
// circuit at t_begin from stimuli[i].value_at(t_begin); each advance(t)
// call then processes every event in (previous horizon, t]. Events whose
// (channel-delayed) time lands beyond the current horizon stay pending
// inside their channel and fire in a later window -- the deferred-gate
// bookkeeping re-arms them, preserving the original schedule order for
// equal-time events. A single advance(t_end) therefore reproduces
// Circuit::simulate bit-for-bit.
//
// advance() is the engine's no-throw boundary: an exception out of a run
// ends the session with a sticky kFailed status and its what() text. The
// session adds up the util::RunCounters increments made inside its own
// constructor and advance() calls, on whichever thread runs them.
//
// The loop walks the circuit's flat state (circuit.hpp): 16-byte gate
// records, the CSR fanout, channels by value. Its event heap keeps the
// keys inline (event_heap.hpp), and recorded transitions go first into a
// per-session log of (t, net) records with a fixed capacity
// (kTransitionLogCapacity), which moves into the per-net traces whenever
// it fills and on every exit from advance() -- trips and failures
// included -- so trace() and take_result() always see every transition up
// to the horizon, and a tripped run's traces stay a prefix of the full
// run's.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/event_heap.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::sim {

class SimSession {
 public:
  /// Settle gates [gate_begin, gate_end) of `circuit` at t_begin and queue
  /// the stimulus transitions they read; [0, circuit.n_gates()) is the
  /// whole circuit. Nets of gates before gate_begin settle at their t_begin
  /// value and change only through inject(). advance() polls `budget` and
  /// ends the session early with the tripped RunStatus. `arena`'s trace
  /// storage is reset and reused, not reallocated; take_result() hands it
  /// back. Misuse (a range out of bounds, a stimulus count that does not
  /// match the primary inputs) throws.
  SimSession(Circuit& circuit, std::size_t gate_begin, std::size_t gate_end,
             const std::vector<waveform::DigitalTrace>& stimuli,
             double t_begin, const RunBudget& budget = RunBudget{},
             Circuit::SimResult&& arena = Circuit::SimResult{});

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  /// Current horizon: all events with t <= t_horizon() are processed.
  double t_horizon() const { return horizon_; }

  /// Current value of a net (settled value right after construction).
  bool value(Circuit::NetId net) const {
    return net_value_[static_cast<std::size_t>(net)] != 0;
  }

  /// Queue an externally produced transition on `net`, which the session's
  /// gates read but none of them drives (shard boundary exchange). Must
  /// satisfy t > t_horizon(); takes effect on the next advance().
  void inject(Circuit::NetId net, double t, bool net_value);

  /// Process every event with t <= t_horizon (stimuli, injected boundary
  /// transitions, and gate firings). Horizons must not decrease. A run
  /// failure or budget trip ends the session instead of throwing; further
  /// calls are then no-ops.
  void advance(double t_horizon);

  long n_stimulus_events() const { return n_stimulus_events_; }
  long n_gate_events() const { return n_gate_events_; }

  /// Peak event-heap occupancy so far (see Circuit::SimResult).
  long max_heap_depth() const { return max_heap_depth_; }

  /// kOk while the session may still advance; any other value is sticky.
  RunStatus status() const { return status_; }

  /// Transitions recorded on `net` so far (up to the current horizon).
  const waveform::DigitalTrace& trace(Circuit::NetId net) const {
    return result_.trace(net);
  }

  /// Move the result out, stamped with status, event count and
  /// diagnostics; the session must not be advanced afterwards.
  Circuit::SimResult take_result();

 private:
  // Records the transition log holds before it moves into the traces: a
  // fixed bound, so a worker's log costs the same on every run.
  static constexpr std::size_t kTransitionLogCapacity = 4096;

  struct StimulusEvent {
    double t = 0.0;
    Circuit::NetId net = -1;
    bool value = false;
  };
  struct LoggedTransition {
    double t = 0.0;
    Circuit::NetId net = -1;
  };

  void initialize(const std::vector<waveform::DigitalTrace>& stimuli);
  void run_window();
  void flush_log();
  void fail(const std::exception& e);
  const Circuit::Fanout* first_reader(std::size_t net) const;
  bool reads(Circuit::NetId net) const;
  void reschedule(std::size_t gate_index,
                  const std::optional<PendingEvent>& pending);
  // `own`: the net is driven by the session's gates (or is a primary
  // input of a whole-circuit session), so the session records it.
  void propagate_net_change(Circuit::NetId net, double t, bool value,
                            bool own);

  Circuit* circuit_;
  std::size_t gate_begin_ = 0;    // the session's gates: [gate_begin_,
  std::size_t gate_end_ = 0;      // gate_end_); heap slots are offsets
  bool whole_ = true;             // every gate: record primary inputs too
  double t_begin_ = 0.0;
  double horizon_ = 0.0;
  RunGuard guard_;
  bool guard_active_ = false;     // false: the loop skips every poll
  RunStatus status_ = RunStatus::kOk;
  std::string error_;             // captured failure text (kFailed)
  util::RunCounters counters_;    // increments made inside this session
  double t_processed_ = 0.0;      // time of the last processed event
  Circuit::SimResult result_;
  std::vector<std::uint8_t> net_value_;  // hot path: byte per net, no
                                         // vector<bool> bit gymnastics
  std::vector<StimulusEvent> stim_events_;
  std::size_t stim_index_ = 0;
  std::vector<StimulusEvent> injected_;  // pending inject()s, merged by advance
  std::vector<LoggedTransition> log_;    // recorded, not yet in a trace
  EventHeap heap_;
  long seq_ = 0;
  // Gates whose channel holds a pending event beyond the current horizon;
  // re-armed (in insertion order, preserving schedule order) on the next
  // advance.
  std::vector<std::size_t> deferred_;
  std::vector<std::uint8_t> is_deferred_;  // by heap slot
  long n_stimulus_events_ = 0;
  long n_gate_events_ = 0;
  long max_heap_depth_ = 0;
};

}  // namespace charlie::sim
