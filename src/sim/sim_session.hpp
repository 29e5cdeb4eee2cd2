// Resumable event-driven simulation session over a range of gates.
//
// SimSession is the only way into the event loop. A run -- one
// Circuit::simulate call, one BatchRunner run, one ShardedCircuit::simulate
// call -- first prepares its shared state (Circuit::prepare_run): one trace
// per net, reset to the net's settled value at t_begin, the primary inputs'
// traces holding their stimulus transitions in the window. Its sessions
// then simulate contiguous gate ranges (blocks) into those traces and fold
// their totals into the run's result in block order (add_to). run_blocks()
// runs a circuit's blocks one after another over the whole window
// (Circuit::simulate and BatchRunner); the sharded runner
// (sim/sharded_circuit.hpp) advances one session per block a conservative
// window quantum at a time, injecting the transitions of upstream blocks
// between advances. A session borrows the channel state of the gates in
// its range, so at most one session may be active per gate at a time;
// sessions over disjoint ranges of one Circuit may run concurrently.
//
// Gate ranges: a Circuit's gates are in topological order by construction
// (every input net exists before the gate that reads it), so a contiguous
// range [gate_begin, gate_end) reads only primary inputs, nets of earlier
// gates, and its own nets. A range session keeps state only for the nets
// its gates read or drive: its own nets, indexed like its gates, and its
// external nets -- the primary inputs and upstream gates' nets it reads;
// the session over the first gates (gate_begin 0) takes every primary
// input, read or not. It streams the transitions its external nets' traces
// hold when it is built -- the stimuli, and the complete traces of upstream
// blocks that already ran -- plus those inject(net, t, value) adds later,
// walks only the in-range part of each fanout list, and appends only to
// the traces of the nets its gates drive.
//
// Events and budgets. A run's events are its primary-input transitions and
// its gate firings. The session over the first gates counts every
// primary-input transition it streams; any other session counts only its
// gate firings, since everything it streams is a primary input the first
// session counts or an upstream gate's firing. n_events() is that count,
// and a run's sessions add up to the run's count, whatever the cut. Before
// each event it counts, a session polls the run's RunGuard with the run's
// count so far, so one event ceiling and one wall clock cover every session
// of a run: run_blocks() stops after exactly max_events events, and only
// when the run has more.
//
// Canonical event order. Every net has one producer: primary input i, or
// the gate driving it. Producers are numbered primary inputs first, in
// declaration order, then gates in construction order. Events at equal
// times are processed in producer order: the stimulus stream (primary
// inputs and upstream transitions, which all precede the range's own
// gates) merged by (t, producer), then gate firings by (t, gate) from the
// event heap. In a one-session run this is exactly the order in which
// equal-time events happen anyway: an event at t can only schedule readers
// of its net, which come later in construction order. A range session
// therefore sees its inputs and its own firings in the same order as a
// session over every gate does, whatever the range, the window or the
// thread that runs it; that is what makes every cut, block schedule and
// window schedule bit-identical.
//
// Window convention (same as Circuit::simulate): construction settles the
// range at t_begin from its nets' settled values, the traces' initial
// values; each advance(t) call then processes every event in (previous
// horizon, t]. A gate firing beyond the current horizon stays in the heap
// and fires in a later window.
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
// included -- so trace() always sees every transition up to the horizon,
// and a tripped run's traces stay a prefix of the full run's. The stream,
// log, heap and per-net state live in a Scratch that a caller running many
// sessions passes to each in turn, so they are allocated once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/event_heap.hpp"
#include "util/error.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::sim {

class SimSession {
 private:
  // One stimulus-stream transition; its source is an index into the
  // session's external nets, which are sorted by producer.
  using StreamEvent = waveform::IndexedTransition;
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
    std::vector<StreamEvent> stream;    // transitions held at construction
    std::vector<StreamEvent> injected;  // merged injected transitions
    std::vector<StreamEvent> incoming;  // inject()s since the last advance
    std::vector<LoggedTransition> log;  // recorded, not yet in a trace
    EventHeap heap;
    std::vector<std::uint8_t> net_value;  // own nets, then external nets
    std::vector<ExternalNet> external;    // by producer
  };

  /// Settle gates [gate_begin, gate_end) of `circuit` at t_begin and queue
  /// the transitions its external nets' traces hold; [0, circuit.n_gates())
  /// is the whole circuit. `traces` holds one trace per net, prepared by
  /// Circuit::prepare_run and shared by the run's sessions: the session
  /// appends its own nets' transitions (every net has one driver, so
  /// concurrent sessions never touch the same trace). advance() polls
  /// `guard`, the run's, before each event the session counts. `traces`,
  /// `scratch` and `guard` must outlive the session. A range out of bounds
  /// throws.
  SimSession(Circuit& circuit, std::size_t gate_begin, std::size_t gate_end,
             double t_begin, std::vector<waveform::DigitalTrace>& traces,
             Scratch& scratch, RunGuard& guard);

  /// One run of every gate of `circuit` over (t_begin, t_end], supervised
  /// by `budget`: prepares `result` (Circuit::prepare_run), then runs the
  /// circuit's blocks (circuit.hpp) one after another over the whole
  /// window -- each block's session is built after its upstream blocks
  /// have finished, so it streams their complete traces and needs no
  /// injection -- and folds them into `result` in block order. A
  /// terminated block ends the run; the blocks after it keep their settled
  /// traces, and diagnostics.t_horizon drops to t_begin. `result`'s traces
  /// and `scratch` are reset in place, keeping their capacity. Never throws
  /// for a run failure; misuse (a stimulus count that does not match the
  /// primary inputs) throws.
  static void run_blocks(Circuit& circuit,
                         const std::vector<waveform::DigitalTrace>& stimuli,
                         double t_begin, double t_end, const RunBudget& budget,
                         Circuit::SimResult& result, Scratch& scratch);

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
  /// The run's events this session processed (see the header): its gate
  /// firings, plus its stimulus events for the session over the first
  /// gates.
  long n_events() const {
    return n_gate_events_ + (gate_begin_ == 0 ? n_stimulus_events_ : 0);
  }

  /// Peak event-heap occupancy so far (see Circuit::SimResult).
  long max_heap_depth() const { return max_heap_depth_; }

  /// kOk while the session may still advance; any other value is sticky.
  RunStatus status() const { return status_; }

  /// The run's trace of `net`: for a net the session's gates drive, every
  /// transition up to the current horizon.
  const waveform::DigitalTrace& trace(Circuit::NetId net) const {
    CHARLIE_ASSERT(net >= 0 &&
                   static_cast<std::size_t>(net) < traces_->size());
    return (*traces_)[static_cast<std::size_t>(net)];
  }

  /// Fold this session into `run`, the totals of its run's sessions in
  /// block order (prepared by Circuit::prepare_run): events, equal-time
  /// ties and guard counters add up, the heap peak is the largest
  /// session's, the horizon is the lowest any session reached (where it
  /// stopped, for a terminated one), and the status is the first failure
  /// -- with its error text -- or else the first trip.
  void add_to(Circuit::SimResult& run) const;

 private:
  // Records the transition log holds before it moves into the traces: a
  // fixed bound, so a worker's log costs the same on every run.
  static constexpr std::size_t kTransitionLogCapacity = 4096;

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
  double horizon_ = 0.0;
  RunGuard* guard_;
  bool guard_active_ = false;     // false: the loop skips every poll
  RunStatus status_ = RunStatus::kOk;
  std::string error_;             // captured failure text (kFailed)
  util::RunCounters counters_;    // increments made inside this session
  double t_processed_ = 0.0;      // time of the last processed event
  std::vector<waveform::DigitalTrace>* traces_;  // by NetId
  Scratch* s_;
  std::size_t stream_index_ = 0;    // next streamed transition
  std::size_t injected_index_ = 0;  // next injected transition
  long n_stimulus_events_ = 0;
  long n_gate_events_ = 0;
  long max_heap_depth_ = 0;
  long equal_time_ties_ = 0;
};

}  // namespace charlie::sim
