// One large circuit partitioned across workers.
//
// ShardedCircuit goes past the embarrassingly-parallel Monte-Carlo batch:
// it simulates a SINGLE circuit on several cores. A shard is a contiguous
// range of the circuit's gates; gates are in topological order, so every
// cross-shard net flows from a lower shard to a higher one and the shard
// graph is acyclic. All shards share the one sim::Circuit, each running a
// SimSession over its own gate range (sim/sim_session.hpp), which keeps
// its own failure and guard counters; simulate() reduces both in shard
// order.
//
// Cuts: the first run uses the structural cut (equal gate counts, each cut
// moved within a balance slack to where the fewest nets are live -- a
// cheap balanced min-cut along the topological order). After every
// completed run the cuts move to where that run's work splits evenly. A
// shard's work is its session events: its gates' firings plus one event
// per transition of each net it reads from outside (primary inputs and
// upstream shards). Both terms come from the run's per-net transition
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
// quanta, and shard k may advance through window w as soon as (a) it has
// finished window w-1 and (b) every shard feeding it has finished window w
// -- at which point all boundary transitions with t <= the window end are
// known and injected. Steps of this wavefront run on the worker pool:
// within one step, the runnable (shard, window) pairs are mutually
// independent, so K shards and W windows expose min(K, W) - 1 steps of
// pipeline parallelism with no speculation and no rollback.
//
// Determinism: every (shard, window) task consumes exactly the boundary
// transitions the monolithic engine would have produced (exchange buckets
// are indexed by window and drained in a fixed edge order), and each
// shard's SimSession replays them with the engine's stimulus-before-gate
// ordering. The result is bit-identical to single-threaded
// Circuit::simulate for any cut, shard count, thread count, and window
// size -- regression-locked by tests/sim/test_sharded_circuit.cpp -- with
// one caveat shared by all conservative orderings: two *distinct* events
// on a dependency path whose timestamps collide to the exact same double
// could tie-break differently than the monolithic seq order. Crossing
// times come from continuous solves, so exact collisions do not occur in
// practice (docs/performance.md has the argument).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/circuit.hpp"
#include "util/thread_pool.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::sim {

struct ShardedSimConfig {
  /// Synchronization quantum [s]; 0 picks (t_end - t_begin) / (8 *
  /// n_shards). Smaller windows expose more pipeline overlap at more
  /// barrier cost; the result is bit-identical either way.
  double window = 0.0;
  /// Worker threads; 0 = min(n_shards, hardware concurrency).
  std::size_t n_threads = 0;
  /// Execution budget for the whole sharded run. The event ceiling is
  /// enforced on the coordinating thread at wavefront-step granularity
  /// (deterministic for a fixed cut and window config); deadlines and
  /// cancellation are additionally polled inside each shard task.
  RunBudget budget;
};

class ShardedCircuit {
 public:
  /// Shards `circuit` into `n_shards` contiguous gate ranges (clamped to
  /// [1, n_gates]) at the structural first cut.
  ShardedCircuit(std::unique_ptr<Circuit> circuit, std::size_t n_shards);

  std::size_t n_shards() const { return cut_.size() - 1; }
  std::size_t n_gates() const { return circuit_->n_gates(); }
  std::size_t n_inputs() const { return circuit_->n_inputs(); }
  /// Cross-shard (net, consumer shard) pairs of the current cut.
  std::size_t n_boundary_edges() const { return edges_.size(); }
  /// The cut the next simulate() runs with: shard s owns gates
  /// [cut()[s], cut()[s + 1]).
  const std::vector<std::size_t>& cut() const { return cut_; }

  /// Simulation result, addressed by net name. Keeps a pointer to this
  /// ShardedCircuit -- the circuit must outlive the result.
  struct Result {
    long n_events = 0;       // matches Circuit::simulate's count
    std::size_t n_windows = 0;
    /// kOk unless the run terminated early: budget/deadline/cancellation
    /// trip, or a failure captured by a shard's session (the wavefront
    /// stops at the end of the step that tripped; traces are best-effort
    /// up to diagnostics.t_horizon, the lowest horizon any shard fully
    /// reached). The pool stays usable either way.
    RunStatus status = RunStatus::kOk;
    /// diagnostics.counters sums the sessions' guard counters in shard
    /// order; diagnostics.error is the lowest-numbered failed shard's.
    RunDiagnostics diagnostics;

    bool ok() const { return status == RunStatus::kOk; }
    const waveform::DigitalTrace& trace(const std::string& net) const;

    /// The cut this run used: shard s owned gates [cut[s], cut[s + 1]).
    std::vector<std::size_t> cut;

    /// Events processed by each (shard, window) task: shard_window_events
    /// [shard][window]. Always recorded (a subtraction per task, no tracing
    /// required) -- this is the data that shows whether the cut actually
    /// balances and where the wavefront's long pole is.
    std::vector<std::vector<long>> shard_window_events;

    /// Load imbalance of this run's cut: the busiest shard's total event
    /// count over the per-shard mean (1.0 = perfectly balanced, K = one
    /// shard did everything). 0 when no events were processed.
    double load_imbalance() const;

    /// Observability aggregate for this run: shard.* counters and
    /// histograms (per-task window events, per-shard totals, exchange
    /// bucket occupancy) of this run's cut and the run.* guard counters,
    /// filled in deterministic shard/edge order. docs/observability.md
    /// lists the names.
    obs::MetricsRegistry metrics;

    /// Traces by NetId of the sharded circuit: primary inputs carry the
    /// windowed stimuli, every other net the trace of the shard driving
    /// it. Address them by name through trace().
    std::vector<waveform::DigitalTrace> traces;
    const ShardedCircuit* owner = nullptr;
  };

  /// Simulate (t_begin, t_end] with `stimuli[i]` driving the i-th primary
  /// input. Bit-identical to the equivalent monolithic Circuit::simulate
  /// for any config; a kOk run with events then re-cuts the shards on its
  /// measured work for the next call.
  Result simulate(const std::vector<waveform::DigitalTrace>& stimuli,
                  double t_begin, double t_end,
                  const ShardedSimConfig& config = {});

 private:
  /// One cross-shard net: `net`, driven in from_shard, read in to_shard. A
  /// net read by several shards has one edge per consumer.
  struct BoundaryEdge {
    Circuit::NetId net = -1;
    std::size_t from_shard = 0;
    std::size_t to_shard = 0;
  };

  void set_cut(std::vector<std::size_t> cut);
  std::size_t shard_of(std::size_t gate) const;
  std::vector<std::size_t> structural_cut(std::size_t n_shards) const;
  std::vector<std::size_t> balanced_cut(
      const std::vector<waveform::DigitalTrace>& traces) const;

  std::unique_ptr<Circuit> circuit_;
  std::vector<int> driver_;  // net -> driving gate, -1 for primary inputs
  std::vector<std::size_t> cut_;
  // Boundary edges of the current cut, by consumer shard then producer
  // gate, and their indices grouped by producer / consumer shard in that
  // order (consumer drain order must not depend on timing).
  std::vector<BoundaryEdge> edges_;
  std::vector<std::vector<std::size_t>> out_edges_;  // by from_shard
  std::vector<std::vector<std::size_t>> in_edges_;   // by to_shard
  std::unique_ptr<util::ThreadPool> pool_;  // lazily (re)built in simulate
};

}  // namespace charlie::sim
