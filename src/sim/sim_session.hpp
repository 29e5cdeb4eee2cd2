// Resumable event-driven simulation session over a range of gates.
//
// SimSession is the only way into the event loop. A run -- one
// Circuit::simulate call, one BatchRunner run, one ShardedCircuit::simulate
// call -- first prepares its shared state (Circuit::prepare_run): one trace
// per net, reset to the net's settled value at t_begin, the primary inputs'
// traces holding their stimulus transitions in the window. Its sessions
// then simulate contiguous gate ranges (blocks) into those traces and fold
// their totals into the run's result in block order (add_to). Every
// session is one block of its run's BlockLocks. run_blocks() runs a
// circuit's blocks one after another over the whole window
// (Circuit::simulate and BatchRunner); the sharded runner
// (sim/sharded_circuit.hpp) advances one session per block a conservative
// window quantum at a time. Either way a session pulls, then advances: a
// pull up to t must come before an advance to t. A session borrows the
// channel state of the gates in its range, so at most one session may be
// active per gate at a time; sessions over disjoint blocks of one run's
// BlockLocks may run concurrently, an upstream block appending while a
// downstream one pulls.
//
// Gate ranges: a Circuit's gates are in topological order by construction
// (every input net exists before the gate that reads it), so a contiguous
// range [gate_begin, gate_end) reads only primary inputs, nets of earlier
// gates, and its own nets. A range session keeps state only for the nets
// its gates read or drive: its own nets, indexed like its gates, and its
// external nets -- the primary inputs and upstream gates' nets it reads;
// the session over the first gates (gate_begin 0) takes every primary
// input, read or not. pull() is the one way transitions enter a session:
// it copies what its external nets' traces hold up to its horizon and it
// has not yet queued -- stimuli, and what upstream blocks have appended --
// into the session's stream. The session walks only the in-range part of
// each fanout list, and appends only to the traces of the nets its gates
// drive. The run's traces are thus the only exchange between blocks. A
// session appends under its own block's lock and counts its appends there;
// pull() reads each upstream block's count and nets under that block's
// lock in shared mode, and passes over a block whose count has not moved
// since the session last queued everything its nets held. Primary inputs'
// traces are complete before the first session exists and take no lock.
//
// Events and budgets. A run's events are its primary-input transitions and
// its gate firings. The session over the first gates counts every
// primary-input transition it pulls; any other session counts only its
// gate firings, since everything it pulls is a primary input the first
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
// times are processed in producer order: the stream (primary inputs and
// upstream transitions, which all precede the range's own gates) by (t,
// producer), then gate firings by (t, gate) from the event heap. A pull
// copies each external net's new transitions as one run, the nets in
// producer order, and merges the runs pairwise
// (waveform::merge_transitions). In a one-session run this is exactly the
// order in which equal-time events happen anyway: an event at t can only
// schedule readers of its net, which come later in construction order. A
// range session therefore sees its inputs and its own firings in the same
// order as a session over every gate does, whatever the range, the window
// or the thread that runs it; that is what makes every cut, block schedule
// and window schedule bit-identical.
//
// Window convention (same as Circuit::simulate): construction settles the
// range at t_begin from its nets' settled values, the traces' initial
// values, and queues nothing; each advance(t) call then processes every
// event in (previous horizon, t]. A gate firing beyond the current horizon
// stays in the heap and fires in a later window.
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
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/event_heap.hpp"
#include "util/error.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::sim {

class SimSession {
 private:
  // One stream transition; its source is an index into the session's
  // external nets, which are sorted by producer.
  using StreamEvent = waveform::IndexedTransition;
  struct LoggedTransition {
    double t = 0.0;
    Circuit::NetId net = -1;
  };
  // A net the range reads but does not drive, with its in-range readers:
  // fanout records [fanout_begin, fanout_end) of the circuit's CSR. The
  // first `queued` transitions of its trace have been pulled.
  struct ExternalNet {
    Circuit::NetId net = -1;
    std::uint32_t fanout_begin = 0;
    std::uint32_t fanout_end = 0;
    std::size_t queued = 0;
  };
  // The external nets [begin, end) that one upstream block drives, and
  // that block's append count when pull() last read their traces;
  // `drained` when that pull left none of their transitions unqueued.
  struct UpstreamBlock {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t block = 0;
    std::uint64_t appended = 0;
    bool drained = true;
  };

 public:
  /// The buffers a session works in: stream, merge buffers, transition
  /// log, event heap and per-net state. A session borrows one and leaves
  /// its capacity behind, so a caller that passes one Scratch to
  /// successive sessions (one at a time) allocates them once.
  class Scratch {
   private:
    friend class SimSession;
    std::vector<StreamEvent> stream;    // the last pull(), by (t, source)
    std::vector<std::size_t> runs;      // its run bounds before the merge
    std::vector<StreamEvent> spare;     // the merge's other buffer
    std::vector<LoggedTransition> log;  // recorded, not yet in a trace
    EventHeap heap;
    std::vector<std::uint8_t> net_value;  // own nets, then external nets
    std::vector<ExternalNet> external;    // by producer
    std::vector<UpstreamBlock> upstream;  // external upstream nets by block
  };

  /// One reader-writer lock and one append count per block of a run's cut
  /// (block b owns gates [cut[b], cut[b + 1])). Each session of the run is
  /// one of these blocks: it appends under its own block's lock and pulls
  /// under its upstream blocks' (see the header). A cut of fewer than two
  /// bounds throws.
  class BlockLocks {
   public:
    explicit BlockLocks(std::span<const std::size_t> cut);
    // Sessions keep its address.
    BlockLocks(const BlockLocks&) = delete;
    BlockLocks& operator=(const BlockLocks&) = delete;

   private:
    friend class SimSession;
    struct alignas(64) Block {
      std::shared_mutex mutex;
      // Transitions the block's session has appended; guarded by `mutex`.
      std::uint64_t appended = 0;
    };
    std::vector<std::size_t> cut_;
    std::unique_ptr<Block[]> blocks_;
  };

  /// Settle gates [gate_begin, gate_end) of `circuit` at t_begin; the
  /// range must be one block of `locks`, and [0, circuit.n_gates()) is the
  /// whole circuit. Nothing is queued until pull(). `traces` holds one
  /// trace per net, prepared by Circuit::prepare_run and shared by the
  /// run's sessions: the session appends its own nets' transitions under
  /// its block's lock (every net has one driver, so concurrent sessions
  /// never touch the same trace). advance() polls `guard`, the run's,
  /// before each event the session counts. `traces`, `scratch`, `guard`
  /// and `locks` must outlive the session. A range out of bounds, or not a
  /// block of `locks`, throws.
  SimSession(Circuit& circuit, std::size_t gate_begin, std::size_t gate_end,
             double t_begin, std::vector<waveform::DigitalTrace>& traces,
             Scratch& scratch, RunGuard& guard, BlockLocks& locks);

  /// One run of every gate of `circuit` over (t_begin, t_end], supervised
  /// by `budget`: prepares `result` (Circuit::prepare_run), then runs the
  /// circuit's blocks (circuit.hpp), each one block of the run's
  /// BlockLocks, one after another over the whole window -- each session
  /// pulls its inputs up to t_end, its upstream blocks having finished,
  /// then advances to t_end -- and folds them into `result` in block
  /// order. A terminated block ends the run; the blocks after it keep
  /// their settled traces, and diagnostics.t_horizon drops to t_begin.
  /// `result`'s traces and `scratch` are reset in place, keeping their
  /// capacity. Never throws for a run failure; misuse (a stimulus count
  /// that does not match the primary inputs) throws.
  static void run_blocks(Circuit& circuit,
                         const std::vector<waveform::DigitalTrace>& stimuli,
                         double t_begin, double t_end, const RunBudget& budget,
                         Circuit::SimResult& result, Scratch& scratch);

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  /// Queue, in (t, producer) order, the transitions up to t_horizon that
  /// the traces of the session's external nets hold and no earlier pull
  /// queued: the primary inputs' stimuli, and what the sessions of the
  /// blocks before it appended. Those blocks must have finished up to
  /// t_horizon. Every transition queued must lie beyond the horizon -- the
  /// last advance() target, t_begin before the first -- and the previous
  /// pull's must all have been processed, by an advance() to at least its
  /// t_horizon (assertions). A terminated session pulls nothing.
  void pull(double t_horizon);

  /// Process every event with t <= t_horizon (pulled transitions and gate
  /// firings). Horizons must not decrease, and a pull must have reached
  /// t_horizon (assertions). A run failure or budget trip ends the session
  /// instead of throwing; further calls are then no-ops.
  void advance(double t_horizon);

  long n_stimulus_events() const { return n_stimulus_events_; }
  long n_gate_events() const { return n_gate_events_; }
  /// Upstream gates' transitions pull() has queued so far; primary inputs
  /// are not counted.
  long n_pulled() const { return n_pulled_; }
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
  void collect_upstream_blocks();
  void run_window();
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
  double pulled_to_ = 0.0;        // the highest pull() horizon
  RunGuard* guard_;
  bool guard_active_ = false;     // false: the loop skips every poll
  RunStatus status_ = RunStatus::kOk;
  std::string error_;             // captured failure text (kFailed)
  util::RunCounters counters_;    // increments made inside this session
  double t_processed_ = 0.0;      // time of the last processed event
  std::vector<waveform::DigitalTrace>* traces_;  // by NetId
  Scratch* s_;
  BlockLocks* locks_;
  BlockLocks::Block* own_block_ = nullptr;
  std::size_t stream_index_ = 0;  // next streamed transition
  long n_stimulus_events_ = 0;
  long n_gate_events_ = 0;
  long n_pulled_ = 0;
  long max_heap_depth_ = 0;
  long equal_time_ties_ = 0;
};

}  // namespace charlie::sim
