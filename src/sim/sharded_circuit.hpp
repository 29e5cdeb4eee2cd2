// One large circuit partitioned across workers.
//
// ShardedCircuit goes past the embarrassingly-parallel Monte-Carlo batch:
// it simulates a SINGLE circuit on several cores. A block (the shard of
// the older interface) is a contiguous range of the circuit's gates;
// gates are in topological order, so every cross-block net flows from a
// lower block to a higher one and the block graph is acyclic. All blocks
// share the one sim::Circuit, each running a SimSession over its own gate
// range (sim/sim_session.hpp). A run is Circuit::simulate's run with
// another schedule: the same prepared traces (Circuit::prepare_run), into
// which every block's session appends its own nets' transitions, and the
// same fold of the sessions into the run's totals in block order
// (SimSession::add_to); in between, the sessions advance as a wavefront.
//
// Blocks: a circuit asked for K shards runs B = max(K, ceil(n_gates /
// Circuit::kGatesPerBlock)) blocks -- the blocks Circuit::simulate runs one
// after another, unless K asks for more; K is the minimum block count. The
// default window count follows B: one window per block, and at least
// kMinWindows, so a circuit of few blocks still fills the pipeline. Block
// and window counts depend only on the circuit and K, never on the host or
// the thread count.
//
// Cuts: the first run uses the structural cut (Circuit::structural_cut).
// After every completed run the cuts move to where that run's work splits
// evenly. A
// block's work is its session events: its gates' firings plus one event
// per transition of each net it reads from outside (primary inputs and
// upstream blocks). Both terms come from the run's per-net transition
// counts, which depend on neither the cut nor the thread count. Activity
// thins with logic depth (glitch cancellation in the hybrid and inertial
// channels) at a rate only a run measures, and one run's counts balance
// the next: for fixed stimuli the cut converges after one run.
// Failed, tripped or event-free runs leave the cut unchanged, so a run's
// partition, and with it its shard.* metrics, is a deterministic function
// of the instance's run history.
//
// Synchronization is conservative windowed execution on the engine's own
// (t_begin, t_end] window convention: simulated time is cut into window
// quanta, and block k may advance through window w as soon as (a) it has
// finished window w-1 and (b) every block feeding it has finished window w
// -- at which point all boundary transitions with t <= the window end are
// in the run's traces. The sessions are built in one parallel_for over
// the blocks; the schedule is then a dataflow wavefront on the worker
// pool, a second parallel_for with one item per worker: task (k, w) is
// released once (k-1, w) and (k, w-1) have finished, which by induction
// is rule (b), and idle workers take released tasks in wavefront order
// (k + w, then k), so one thread runs them step by step. B blocks and W windows expose up to
// min(B, W) concurrent tasks with no speculation and no rollback. The
// traces are the only exchange: a task first pulls what its upstream
// blocks appended up to its window's end (SimSession::pull), then
// advances, appending only to its own nets' traces. Upstream blocks may
// append while a downstream task pulls, so each block's traces have a
// reader-writer lock for the run (SimSession::BlockLocks).
//
// Determinism: every (block, window) task consumes exactly the boundary
// transitions its upstream blocks produce, and every session processes
// equal-time events in the engine's canonical producer order (primary
// inputs, then gates in construction order; sim_session.hpp). Construction
// order is topological and every block is a contiguous range, so all of a
// block's upstream events at time t precede its own events at t in a
// one-session run too: each session replays exactly that order. The result
// is bit-identical to Circuit::simulate for any cut, block count, thread
// count and window size, exact time ties included -- regression-locked by
// tests/sim/test_sharded_circuit.cpp and tests/sim/test_cross_mode.cpp.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/circuit.hpp"
#include "sim/sim_session.hpp"
#include "util/thread_pool.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::sim {

struct ShardedSimConfig {
  /// Synchronization quantum [s]; 0 picks (t_end - t_begin) /
  /// max(n_shards(), ShardedCircuit::kMinWindows). Smaller windows expose
  /// more pipeline overlap at more scheduling and cache-refill cost; the
  /// result is bit-identical either way.
  double window = 0.0;
  /// Worker threads (0 = hardware concurrency), at most n_shards(): no
  /// more tasks than blocks are ever ready at once.
  std::size_t n_threads = 0;
  /// Execution budget for the whole sharded run. The event ceiling on the
  /// run's events (SimSession::n_events) is checked between wavefront
  /// steps: with a ceiling, the tasks of step k + w start only once the
  /// previous step has finished under it, so a trip is deterministic for a
  /// fixed cut and window config. A run whose last step takes it past the
  /// ceiling trips after it. Deadlines and cancellation are polled inside
  /// each block task.
  RunBudget budget;
};

class ShardedCircuit {
 public:
  /// Fewest windows the default quantum cuts a run into.
  static constexpr std::size_t kMinWindows = 16;

  /// Cuts `circuit` into max(min_blocks, ceil(n_gates /
  /// Circuit::kGatesPerBlock)) contiguous gate ranges (clamped to [1,
  /// n_gates]) at the structural first cut (Circuit::structural_cut).
  ShardedCircuit(std::unique_ptr<Circuit> circuit, std::size_t min_blocks);

  /// Number of blocks (at least the requested minimum).
  std::size_t n_shards() const { return cut_.size() - 1; }
  std::size_t n_gates() const { return circuit_->n_gates(); }
  std::size_t n_inputs() const { return circuit_->n_inputs(); }
  /// Cross-block (net, consumer block) pairs of the current cut.
  std::size_t n_boundary_edges() const { return n_boundary_edges_; }
  /// The cut the next simulate() runs with: block s owns gates
  /// [cut()[s], cut()[s + 1]).
  const std::vector<std::size_t>& cut() const { return cut_; }

  /// Circuit::simulate's result -- traces by NetId, n_events, status and
  /// diagnostics, the same fold of the block sessions -- plus the sharded
  /// run's schedule and metrics. A run terminated early (budget, deadline,
  /// cancellation, a failure captured by a block's session or a fault in
  /// the pool) runs the rest of the wavefront step at which it stopped and
  /// releases no task after it; the tasks in flight finish. It reports the
  /// first failure in wavefront order (step, then block), else the first
  /// trip. Its traces are best-effort up to diagnostics.t_horizon, and the
  /// pool stays usable.
  /// Nets are also addressed by name, through a pointer to this
  /// ShardedCircuit -- the circuit must outlive the result.
  struct Result : Circuit::SimResult {
    using Circuit::SimResult::trace;
    const waveform::DigitalTrace& trace(const std::string& net) const;

    std::size_t n_windows = 0;
    /// Worker threads the run used (ShardedSimConfig::n_threads, resolved
    /// and clamped to the block count).
    std::size_t n_threads = 0;

    /// The cut this run used: block s owned gates [cut[s], cut[s + 1]).
    std::vector<std::size_t> cut;

    /// Events processed by each (block, window) task: shard_window_events
    /// [block][window]. Always recorded (a subtraction per task, no tracing
    /// required) -- this is the data that shows whether the cut actually
    /// balances and where the wavefront's long pole is.
    std::vector<std::vector<long>> shard_window_events;

    /// Load imbalance of this run's cut: the busiest block's total event
    /// count over the per-block mean (1.0 = perfectly balanced, B = one
    /// block did everything). 0 when no events were processed.
    double load_imbalance() const;

    /// Observability aggregate for this run: shard.* counters and
    /// histograms (per-task window events, per-block totals, pulled
    /// upstream transitions) of this run's cut, sim.* per-block counters
    /// and the run.* guard counters, filled in deterministic block order.
    /// docs/observability.md lists the names.
    obs::MetricsRegistry metrics;

    const ShardedCircuit* owner = nullptr;
  };

  /// Simulate (t_begin, t_end] with `stimuli[i]` driving the i-th primary
  /// input. Bit-identical to the equivalent monolithic Circuit::simulate
  /// for any config; a kOk run with events then re-cuts the blocks on its
  /// measured work for the next call.
  Result simulate(const std::vector<waveform::DigitalTrace>& stimuli,
                  double t_begin, double t_end,
                  const ShardedSimConfig& config = {});

 private:
  void set_cut(std::vector<std::size_t> cut);
  std::vector<std::size_t> balanced_cut(
      const std::vector<waveform::DigitalTrace>& traces) const;

  /// The gate driving `net`; negative for a primary input.
  int driver(Circuit::NetId net) const {
    return static_cast<int>(circuit_->producer(net)) -
           static_cast<int>(circuit_->n_inputs());
  }

  std::unique_ptr<Circuit> circuit_;
  std::vector<std::size_t> cut_;
  std::size_t n_boundary_edges_ = 0;
  // Kept across runs: each block's session buffers.
  std::vector<SimSession::Scratch> scratch_;
  std::unique_ptr<util::ThreadPool> pool_;  // lazily (re)built in simulate
};

}  // namespace charlie::sim
