#include "sim/sharded_circuit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "obs/trace_recorder.hpp"
#include "sim/sim_session.hpp"
#include "util/error.hpp"

namespace charlie::sim {

ShardedCircuit::ShardedCircuit(std::unique_ptr<Circuit> circuit,
                               std::size_t min_blocks)
    : circuit_(std::move(circuit)) {
  CHARLIE_ASSERT_MSG(circuit_ != nullptr, "sharded circuit: no circuit");
  // Sessions are constructed concurrently in simulate(): the shared fanout
  // must be complete before the first of them exists.
  circuit_->finish_fanout();
  // At least the blocks Circuit::simulate runs.
  set_cut(circuit_->structural_cut(
      std::max(min_blocks, circuit_->blocks_.size() - 1)));
}

std::size_t ShardedCircuit::shard_of(std::size_t gate) const {
  return static_cast<std::size_t>(
      std::upper_bound(cut_.begin(), cut_.end(), gate) - cut_.begin() - 1);
}

void ShardedCircuit::set_cut(std::vector<std::size_t> cut) {
  const std::size_t n_gates = circuit_->n_gates();
  CHARLIE_ASSERT(cut.size() >= 2 && cut.front() == 0 &&
                 cut.back() == n_gates);
  for (std::size_t s = 0; s + 1 < cut.size(); ++s) {
    // Every shard keeps at least one gate (an empty circuit is one empty
    // shard).
    CHARLIE_ASSERT(cut[s] < cut[s + 1] || n_gates == 0);
  }
  cut_ = std::move(cut);
  const std::size_t n_shards = cut_.size() - 1;

  // Boundary edges: per consumer shard, the nets its gates read from
  // earlier shards, in producer (topological) order -- deterministic.
  edges_.clear();
  std::vector<std::size_t> seen_by(circuit_->n_nets(), n_shards);
  std::vector<std::size_t> producers;
  for (std::size_t s = 0; s < n_shards; ++s) {
    producers.clear();
    for (std::size_t g = cut_[s]; g < cut_[s + 1]; ++g) {
      for (const Circuit::NetId net : circuit_->gate_inputs(g)) {
        const int d = driver(net);
        if (d < 0 || static_cast<std::size_t>(d) >= cut_[s]) continue;
        if (seen_by[static_cast<std::size_t>(net)] == s) continue;
        seen_by[static_cast<std::size_t>(net)] = s;
        producers.push_back(static_cast<std::size_t>(d));
      }
    }
    std::sort(producers.begin(), producers.end());
    for (const std::size_t d : producers) {
      edges_.push_back({circuit_->gate_output(d), shard_of(d), s});
    }
  }
  out_edges_.assign(n_shards, {});
  in_edges_.assign(n_shards, {});
  ring_begin_.assign(edges_.size() + 1, 0);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    out_edges_[edges_[i].from_shard].push_back(i);
    in_edges_[edges_[i].to_shard].push_back(i);
    ring_begin_[i + 1] =
        ring_begin_[i] + edges_[i].to_shard - edges_[i].from_shard + 1;
  }
  rings_.clear();
  rings_.resize(ring_begin_.back());
}

std::vector<std::size_t> ShardedCircuit::balanced_cut(
    const std::vector<waveform::DigitalTrace>& traces) const {
  const std::size_t n_gates = circuit_->n_gates();
  const std::size_t n_parts = n_shards();
  if (n_parts == 1) return cut_;

  // Work model: gate g costs its firings (its output's transitions); a
  // shard additionally costs one event per transition of each distinct net
  // it reads from before its first gate. Most gates read only nets of
  // their own shard, so each gate's lowest input driver is computed once,
  // and a probe below visits a gate's inputs only when that driver lies
  // before the shard start.
  auto transitions = [&](Circuit::NetId net) {
    return static_cast<long>(
        traces[static_cast<std::size_t>(net)].n_transitions());
  };
  std::vector<long> fires(n_gates);
  std::vector<int> min_driver(n_gates);
  for (std::size_t g = 0; g < n_gates; ++g) {
    fires[g] = transitions(circuit_->gate_output(g));
    int lowest = std::numeric_limits<int>::max();
    for (const Circuit::NetId net : circuit_->gate_inputs(g)) {
      lowest = std::min(lowest, driver(net));
    }
    min_driver[g] = lowest;
  }

  // Load gate g adds to the shard starting at `start`; marks its external
  // nets as counted there (a shard that then closes never looks again).
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> counted_by(traces.size(), kNone);  // shard start
  auto cost = [&](std::size_t g, std::size_t start) {
    long c = fires[g];
    if (min_driver[g] >= static_cast<long>(start)) return c;
    for (const Circuit::NetId net : circuit_->gate_inputs(g)) {
      const auto n = static_cast<std::size_t>(net);
      if (driver(net) >= static_cast<long>(start) || counted_by[n] == start) {
        continue;
      }
      counted_by[n] = start;
      c += transitions(net);
    }
    return c;
  };

  // Greedy sweep under a max shard load: each shard takes gates while they
  // fit, and every remaining gate opens its own shard once only as many
  // gates as unopened shards remain. A shard's load only grows as it
  // extends right and only shrinks as its start moves right, so the sweep
  // fits a load iff any K-way contiguous split does.
  auto fits = [&](long limit, std::vector<std::size_t>* cuts) {
    std::fill(counted_by.begin(), counted_by.end(), kNone);
    std::size_t first = 0;   // first gate of the open shard
    std::size_t opened = 1;  // shards opened so far
    long load = 0;
    for (std::size_t g = 0; g < n_gates; ++g) {
      long add = cost(g, first);
      if (g > first &&
          (load + add > limit || n_gates - g == n_parts - opened)) {
        if (++opened > n_parts) return false;
        first = g;
        if (cuts != nullptr) cuts->push_back(g);
        load = 0;
        add = cost(g, first);
      }
      if (load + add > limit) return false;
      load += add;
    }
    return true;
  };

  // Smallest feasible max load, in integer events: the busiest shard does
  // at least its share of the firings, and the busiest shard of the cut
  // just run is feasible. Once the cuts have converged that cut is
  // optimal, and one probe just below its load confirms it.
  long fired = 0;
  for (const long f : fires) fired += f;
  long lo = fired / static_cast<long>(n_parts);
  long hi = 0;
  std::fill(counted_by.begin(), counted_by.end(), kNone);
  for (std::size_t s = 0; s < n_parts; ++s) {
    long load = 0;
    for (std::size_t g = cut_[s]; g < cut_[s + 1]; ++g) {
      load += cost(g, cut_[s]);
    }
    hi = std::max(hi, load);
  }
  if (lo < hi && !fits(hi - 1, nullptr)) lo = hi;
  while (lo < hi) {
    const long mid = lo + (hi - lo) / 2;
    if (fits(mid, nullptr)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<std::size_t> cut{0};
  fits(hi, &cut);
  cut.push_back(n_gates);
  return cut;
}

double ShardedCircuit::Result::load_imbalance() const {
  if (shard_window_events.empty()) return 0.0;
  long total = 0;
  long busiest = 0;
  for (const auto& windows : shard_window_events) {
    long shard_total = 0;
    for (const long n : windows) shard_total += n;
    total += shard_total;
    busiest = std::max(busiest, shard_total);
  }
  if (total == 0) return 0.0;
  const double mean = static_cast<double>(total) /
                      static_cast<double>(shard_window_events.size());
  return static_cast<double>(busiest) / mean;
}

const waveform::DigitalTrace& ShardedCircuit::Result::trace(
    const std::string& net) const {
  CHARLIE_ASSERT(owner != nullptr);
  return traces[static_cast<std::size_t>(owner->circuit_->find_net(net))];
}

ShardedCircuit::Result ShardedCircuit::simulate(
    const std::vector<waveform::DigitalTrace>& stimuli, double t_begin,
    double t_end, const ShardedSimConfig& config) {
  const std::size_t n_shards = this->n_shards();
  // The coordinator's guard: its clock starts with the run.
  RunGuard guard(config.budget);
  Circuit::SimResult run;
  circuit_->prepare_run(stimuli, t_begin, t_end, run);

  // --- window schedule -----------------------------------------------------
  // W windows of quantum q; the last window's end is exactly t_end, and every
  // earlier boundary is strictly below it, so each advance() horizon strictly
  // increases and the union of windows is exactly (t_begin, t_end].
  const double span = t_end - t_begin;
  double quantum = config.window;
  if (!(quantum > 0.0)) {
    quantum = span / static_cast<double>(std::max(n_shards, kMinWindows));
  }
  std::size_t n_windows =
      static_cast<std::size_t>(std::ceil(span / quantum));
  n_windows = std::max<std::size_t>(n_windows, 1);
  auto window_end = [&](std::size_t w) {
    return w + 1 == n_windows ? t_end
                              : t_begin + static_cast<double>(w + 1) * quantum;
  };

  std::size_t n_threads = config.n_threads;
  if (n_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n_threads = std::min<std::size_t>(n_shards, hw > 0 ? hw : 1);
  }
  if (pool_ == nullptr || pool_->n_threads() != n_threads) {
    pool_ = std::make_unique<util::ThreadPool>(n_threads);
  }

  // --- sessions, one per block ---------------------------------------------
  // Every session starts its range from the run's prepared traces and
  // appends its nets' transitions to them. The nets a block reads from
  // upstream hold only their settled values yet; their transitions arrive
  // through inject().
  scratch_.resize(n_shards);
  std::vector<std::unique_ptr<SimSession>> sessions(n_shards);
  // Block tasks poll only the wall clock and the cancellation token, each
  // through a guard of its own; the event ceiling is enforced below, on the
  // coordinating thread at step granularity, so a budget trip is
  // deterministic for a fixed config.
  RunBudget task_budget = config.budget;
  task_budget.max_events = 0;
  std::vector<RunGuard> task_guards(n_shards, RunGuard(task_budget));
  // Sessions over disjoint ranges initialize concurrently: each writes only
  // its own gates' state and scratch.
  pool_->parallel_for(n_shards, 1, [&](std::size_t /*worker*/, std::size_t s) {
    sessions[s] = std::make_unique<SimSession>(*circuit_, cut_[s], cut_[s + 1],
                                               t_begin, run.traces,
                                               scratch_[s], task_guards[s]);
  });
  Result result;
  result.owner = this;
  result.cut = cut_;
  result.n_windows = n_windows;

  // --- exchange rings ------------------------------------------------------
  // Edge e's window-w bucket is filled at wavefront step from_shard + w and
  // drained (then emptied) at step to_shard + w; its ring has to - from + 1
  // buckets, so the bucket a producer fills is never the one its consumer
  // drains in the same step, and no locking is needed. A terminated run
  // may have left transitions behind.
  for (auto& bucket : rings_) bucket.clear();
  auto bucket_of = [&](std::size_t e, std::size_t w)
      -> std::vector<BoundaryEvent>& {
    const BoundaryEdge& edge = edges_[e];
    return rings_[ring_begin_[e] +
                  w % (edge.to_shard - edge.from_shard + 1)];
  };
  std::vector<std::size_t> export_cursor(edges_.size(), 0);
  // Drained bucket sizes, per consumer block (its tasks run one at a time).
  std::vector<obs::LogHistogram> bucket_sizes(n_shards);

  // Per-(block, window) event counts, written by the owning task (distinct
  // slot per task, so no synchronization beyond the pool's step barrier).
  // Recorded unconditionally: a subtraction per window task is free next to
  // the window's event processing, and it is the data load_imbalance() and
  // the shard.* metrics summarize.
  std::vector<std::vector<long>> shard_window_events(
      n_shards, std::vector<long>(n_windows, 0));

  // --- conservative wavefront ----------------------------------------------
  // Task (block k, window w) runs at step k + w; all tasks of one step are
  // mutually independent (distinct sessions over disjoint gate ranges,
  // disjoint buckets and traces), so each step is one parallel_for. Grain
  // 1: block/window tasks are coarse already.
  RunStatus stopped = RunStatus::kOk;  // by the pool or the event ceiling
  std::string pool_error;
  for (std::size_t step = 0; step + 1 < n_shards + n_windows; ++step) {
    const std::size_t k_lo = step >= n_windows ? step - n_windows + 1 : 0;
    const std::size_t k_hi = std::min(n_shards - 1, step);
    try {
      pool_->parallel_for(
          k_hi - k_lo + 1, 1, [&](std::size_t /*worker*/, std::size_t task) {
            const std::size_t k = k_lo + task;
            const std::size_t w = step - k;
            SimSession& session = *sessions[k];
            obs::ScopedSpan obs_span("shard.task", "shard",
                                     static_cast<long long>(k), "window",
                                     static_cast<long long>(w));
            const long events_before =
                session.n_stimulus_events() + session.n_gate_events();
            // This window's boundary transitions; the session merges them
            // into its stream in canonical (t, producer) order.
            for (const std::size_t edge_index : in_edges_[k]) {
              const Circuit::NetId net = edges_[edge_index].net;
              std::vector<BoundaryEvent>& bucket = bucket_of(edge_index, w);
              for (const BoundaryEvent& ev : bucket) {
                session.inject(net, ev.t, ev.value);
              }
              bucket_sizes[k].add(static_cast<double>(bucket.size()));
              bucket.clear();
            }
            session.advance(window_end(w));
            shard_window_events[k][w] = session.n_stimulus_events() +
                                        session.n_gate_events() -
                                        events_before;
            // Export this window's production on every out-edge: all
            // not-yet-exported transitions up to the new horizon.
            for (const std::size_t edge_index : out_edges_[k]) {
              const waveform::DigitalTrace& produced =
                  session.trace(edges_[edge_index].net);
              std::size_t& cursor = export_cursor[edge_index];
              std::vector<BoundaryEvent>& bucket = bucket_of(edge_index, w);
              while (cursor < produced.n_transitions() &&
                     produced.transitions()[cursor] <= session.t_horizon()) {
                bucket.push_back({produced.transitions()[cursor],
                                  produced.is_rising(cursor)});
                ++cursor;
              }
            }
          });
    } catch (const std::exception& e) {
      // A fault outside every session (the pool itself).
      stopped = RunStatus::kFailed;
      pool_error = e.what();
      break;
    }
    // Failures and deadline/cancellation trips are sticky in the session;
    // stop scheduling further steps once any block has terminated.
    long n_processed = 0;
    bool terminated = false;
    for (const auto& session : sessions) {
      n_processed += session->n_events();
      terminated = terminated || session->status() != RunStatus::kOk;
    }
    if (terminated) break;
    // Deterministic event-budget check at step granularity: the summed
    // event count after a completed step does not depend on thread count.
    if (config.budget.enabled()) {
      stopped = guard.check(n_processed);
      if (stopped != RunStatus::kOk) break;
    }
  }

  // --- reduction, in block order -------------------------------------------
  // The sessions fold into the run's totals as in Circuit::simulate: a
  // failure outranks a trip, and a failed run reports the lowest-numbered
  // failed block's error, unless the pool itself failed.
  result.shard_window_events = std::move(shard_window_events);
  result.metrics.add("shard.count", static_cast<long long>(n_shards));
  result.metrics.add("shard.windows", static_cast<long long>(n_windows));
  for (std::size_t s = 0; s < n_shards; ++s) {
    sessions[s]->add_to(run);
    long shard_total = 0;
    for (const long n : result.shard_window_events[s]) {
      shard_total += n;
      result.metrics.observe("shard.window_events", static_cast<double>(n));
    }
    result.metrics.observe("shard.events", static_cast<double>(shard_total));
    result.metrics.observe("sim.max_heap_depth",
                           static_cast<double>(sessions[s]->max_heap_depth()));
    if (bucket_sizes[s].count() > 0) {
      result.metrics.merge("shard.boundary_bucket", bucket_sizes[s]);
    }
  }
  if (stopped == RunStatus::kFailed) {
    run.status = RunStatus::kFailed;
    run.diagnostics.error = pool_error;
  } else if (run.status == RunStatus::kOk) {
    run.status = stopped;
  }
  run.diagnostics.status = run.status;
  const obs::LogHistogram* buckets =
      result.metrics.histogram("shard.boundary_bucket");
  result.metrics.add(
      "shard.boundary_transitions",
      buckets != nullptr ? static_cast<long long>(buckets->sum()) : 0);
  result.metrics.add("sim.equal_time_ties", run.equal_time_ties);
  obs::absorb_run_counters(result.metrics, run.diagnostics.counters);
  result.n_events = run.n_events;
  result.status = run.status;
  result.diagnostics = std::move(run.diagnostics);
  result.traces = std::move(run.traces);

  // Re-cut on this run's measured work for the next run.
  if (result.ok() && result.n_events > 0) {
    std::vector<std::size_t> next = balanced_cut(result.traces);
    if (next != cut_) set_cut(std::move(next));
  }
  return result;
}

}  // namespace charlie::sim
