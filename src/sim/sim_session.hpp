// Resumable event-driven simulation session over a range of gates.
//
// SimSession is the only way into the event loop: Circuit::simulate runs
// one session over every gate, BatchRunner one per run over its worker's
// trace arena and scratch, and the sharded circuit runner
// (sim/sharded_circuit.hpp) one per block over a contiguous gate range of a
// shared Circuit, advanced one conservative window quantum at a time with
// the transitions of upstream blocks injected between advances. A session
// borrows the channel state of the gates in its range, so at most one
// session may be active per gate at a time; sessions over disjoint ranges
// of one Circuit may run concurrently.
//
// Gate ranges: a Circuit's gates are in topological order by construction
// (every input net exists before the gate that reads it), so a contiguous
// range [gate_begin, gate_end) reads only primary inputs, nets of earlier
// gates, and its own nets. A range session keeps state only for the nets
// its gates read or drive: its own nets, indexed like its gates, and its
// external nets -- the primary inputs and upstream gates' nets it reads.
// It queues the stimulus transitions of the primary inputs it reads, takes
// transitions of upstream nets through inject(net, t, value), walks only
// the in-range part of each fanout list, and records only the nets its
// gates drive. A session over every gate is the whole engine: its external
// nets are every primary input, and it records them as well.
//
// Canonical event order. Every net has one producer: primary input i, or
// the gate driving it. Producers are numbered primary inputs first, in
// declaration order, then gates in construction order. Events at equal
// times are processed in producer order: the stimulus stream (primary
// inputs and injected upstream transitions, which all precede the range's
// own gates) merged by (t, producer), then gate firings by (t, gate) from
// the event heap. In a whole-circuit run this is exactly the order in which
// equal-time events happen anyway: an event at t can only schedule readers
// of its net, which come later in construction order. A range session
// therefore sees its inputs and its own firings in the same order as the
// whole-circuit session does, whatever the range, the window or the
// thread that runs it; that is what makes every split, shard and window
// schedule bit-identical to Circuit::simulate.
//
// Window convention (same as Circuit::simulate): construction settles the
// range at t_begin from the stimuli's values at t_begin; each advance(t)
// call then processes every event in (previous horizon, t]. A gate firing
// beyond the current horizon stays in the heap and fires in a later
// window. A single advance(t_end) is Circuit::simulate.
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
// run's. The stream, log, heap and per-net state live in a Scratch that a
// caller running many sessions passes to each in turn, so they are
// allocated once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/event_heap.hpp"
#include "util/error.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::sim {

class SimSession {
 private:
  // One stimulus-stream transition on external net `ext` (an index into
  // the session's external nets, which are sorted by producer).
  struct StreamEvent {
    double t = 0.0;
    std::uint32_t ext = 0;
    bool value = false;
  };
  struct LoggedTransition {
    double t = 0.0;
    Circuit::NetId net = -1;
  };
  // A net the range reads but does not drive, with its in-range readers:
  // fanout records [fanout_begin, fanout_end) of the circuit's CSR.
  struct ExternalNet {
    Circuit::NetId net = -1;
    std::uint32_t fanout_begin = 0;
    std::uint32_t fanout_end = 0;
  };

 public:
  /// The buffers a session works in: stimulus stream, injected
  /// transitions, transition log, event heap and per-net state. A session
  /// borrows one and leaves its capacity behind, so a caller that passes
  /// one Scratch to successive sessions (one at a time) allocates them
  /// once.
  class Scratch {
   private:
    friend class SimSession;
    std::vector<StreamEvent> stream;    // primary-input transitions
    std::vector<StreamEvent> injected;  // merged injected transitions
    std::vector<StreamEvent> incoming;  // inject()s since the last advance
    std::vector<LoggedTransition> log;  // recorded, not yet in a trace
    EventHeap heap;
    std::vector<std::uint8_t> net_value;  // own nets, then external nets
    std::vector<ExternalNet> external;    // by producer
    std::vector<std::pair<Circuit::NetId, std::uint32_t>> external_by_net;
    std::vector<std::uint8_t> settled;  // standalone sessions' settle
  };

  /// Settle gates [gate_begin, gate_end) of `circuit` at t_begin and queue
  /// the stimulus transitions they read; [0, circuit.n_gates()) is the
  /// whole circuit. The session settles the gates before its range itself;
  /// nets of those gates change only through inject(). advance() polls
  /// `budget` and ends the session early with the tripped RunStatus.
  /// `arena` holds one trace per net, reset and reused, not reallocated;
  /// take_result() hands it back. `scratch` (a private one when null) must
  /// outlive the session. Misuse (a range out of bounds, a stimulus count
  /// that does not match the primary inputs) throws.
  SimSession(Circuit& circuit, std::size_t gate_begin, std::size_t gate_end,
             const std::vector<waveform::DigitalTrace>& stimuli,
             double t_begin, const RunBudget& budget = RunBudget{},
             Circuit::SimResult&& arena = Circuit::SimResult{},
             Scratch* scratch = nullptr);

  /// A gate range of a run it shares with other sessions (sharded
  /// execution): settles from `settled` (Circuit::settle of the run's
  /// stimuli at t_begin, one value per net) and appends its nets'
  /// transitions to `traces` (one per net, shared by the run's sessions;
  /// every net has one driver, so concurrent sessions never touch the same
  /// trace). take_result() then carries no traces.
  SimSession(Circuit& circuit, std::size_t gate_begin, std::size_t gate_end,
             const std::vector<waveform::DigitalTrace>& stimuli,
             double t_begin, std::span<const std::uint8_t> settled,
             std::vector<waveform::DigitalTrace>& traces, Scratch& scratch,
             const RunBudget& budget);

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  /// Current horizon: all events with t <= t_horizon() are processed.
  double t_horizon() const { return horizon_; }

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
  /// `net` is one the session records: a net its gates drive, or a primary
  /// input of a whole-circuit session. A session with its own arena reads
  /// every other net as an empty trace.
  const waveform::DigitalTrace& trace(Circuit::NetId net) const {
    CHARLIE_ASSERT(net >= 0 &&
                   static_cast<std::size_t>(net) < traces_->size());
    return (*traces_)[static_cast<std::size_t>(net)];
  }

  /// Move the result out, stamped with status, event counts and
  /// diagnostics; the session must not be advanced afterwards.
  Circuit::SimResult take_result();

 private:
  // Records the transition log holds before it moves into the traces: a
  // fixed bound, so a worker's log costs the same on every run.
  static constexpr std::size_t kTransitionLogCapacity = 4096;

  SimSession(Circuit& circuit, std::size_t gate_begin, std::size_t gate_end,
             double t_begin, const RunBudget& budget,
             Circuit::SimResult&& arena,
             std::vector<waveform::DigitalTrace>* traces, Scratch* scratch);
  void initialize(const std::vector<waveform::DigitalTrace>& stimuli,
                  std::span<const std::uint8_t> settled);
  void collect_external_nets();
  void run_window();
  void merge_injected();
  void flush_log();
  void fail(const std::exception& e);
  void reschedule(std::size_t slot,
                  const std::optional<PendingEvent>& pending);
  // Delivers a net's new value to the range's readers in [reader, end).
  void deliver(const Circuit::Fanout* reader, const Circuit::Fanout* end,
               double t, bool value);

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
  std::vector<waveform::DigitalTrace>* traces_;  // by NetId
  Scratch own_scratch_;           // used when the caller passes none
  Scratch* s_;
  std::size_t stream_index_ = 0;    // next primary-input transition
  std::size_t injected_index_ = 0;  // next injected transition
  long n_stimulus_events_ = 0;
  long n_gate_events_ = 0;
  long max_heap_depth_ = 0;
  long equal_time_ties_ = 0;
};

}  // namespace charlie::sim
