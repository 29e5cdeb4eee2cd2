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
                               std::size_t n_shards)
    : circuit_(std::move(circuit)) {
  CHARLIE_ASSERT_MSG(circuit_ != nullptr, "sharded circuit: no circuit");
  // Sessions are constructed concurrently in simulate(): the shared fanout
  // must be complete before the first of them exists.
  circuit_->finish_fanout();
  driver_.assign(circuit_->n_nets(), -1);
  for (std::size_t g = 0; g < circuit_->n_gates(); ++g) {
    driver_[static_cast<std::size_t>(circuit_->gate_output(g))] =
        static_cast<int>(g);
  }
  set_cut(structural_cut(n_shards));
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
        const int d = driver_[static_cast<std::size_t>(net)];
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
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    out_edges_[edges_[i].from_shard].push_back(i);
    in_edges_[edges_[i].to_shard].push_back(i);
  }
}

std::vector<std::size_t> ShardedCircuit::structural_cut(
    std::size_t n_shards) const {
  const std::size_t n_gates = circuit_->n_gates();
  const std::size_t n_parts = std::clamp<std::size_t>(
      n_shards, 1, std::max<std::size_t>(n_gates, 1));

  // A cut at gate p separates gates [0, p) from [p, n). Its cost is the
  // number of nets live across it: nets driven before p whose last reader
  // sits at or after p. Costs for every p come from one difference array
  // over the net live ranges; each of the K-1 cuts then takes the cheapest
  // position within a balance slack around its ideal (equal-count)
  // position.
  std::vector<int> last_use(n_gates, -1);
  for (std::size_t g = 0; g < n_gates; ++g) {
    for (const Circuit::NetId net : circuit_->gate_inputs(g)) {
      const int d = driver_[static_cast<std::size_t>(net)];
      if (d >= 0) {
        last_use[static_cast<std::size_t>(d)] =
            std::max(last_use[static_cast<std::size_t>(d)],
                     static_cast<int>(g));
      }
    }
  }
  std::vector<int> live(n_gates + 1, 0);
  for (std::size_t d = 0; d < n_gates; ++d) {
    if (last_use[d] < 0) continue;  // output read by no gate
    ++live[d + 1];
    --live[static_cast<std::size_t>(last_use[d]) + 1];
  }
  for (std::size_t p = 1; p <= n_gates; ++p) live[p] += live[p - 1];

  std::vector<std::size_t> cut(n_parts + 1, 0);
  cut[n_parts] = n_gates;
  const std::size_t slack =
      std::max<std::size_t>(1, n_gates / (4 * n_parts));
  for (std::size_t i = 1; i < n_parts; ++i) {
    const std::size_t ideal = i * n_gates / n_parts;
    // Every shard keeps at least one gate: cut i stays in
    // [cut[i-1] + 1, n_gates - (n_parts - i)].
    const std::size_t floor_p = cut[i - 1] + 1;
    const std::size_t ceil_p = n_gates - (n_parts - i);
    std::size_t lo = std::max(floor_p, ideal > slack ? ideal - slack : 1);
    std::size_t hi = std::min(ceil_p, ideal + slack);
    if (lo > hi) {
      lo = hi = std::clamp(ideal, floor_p, ceil_p);
    }
    std::size_t best = lo;
    for (std::size_t p = lo; p <= hi; ++p) {
      const auto distance = [&](std::size_t q) {
        return q > ideal ? q - ideal : ideal - q;
      };
      if (live[p] < live[best] ||
          (live[p] == live[best] && distance(p) < distance(best))) {
        best = p;
      }
    }
    cut[i] = best;
  }
  return cut;
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
  long total = 0;  // every firing plus every input read: always feasible
  for (std::size_t g = 0; g < n_gates; ++g) {
    fires[g] = transitions(circuit_->gate_output(g));
    total += fires[g];
    int lowest = std::numeric_limits<int>::max();
    for (const Circuit::NetId net : circuit_->gate_inputs(g)) {
      lowest = std::min(lowest, driver_[static_cast<std::size_t>(net)]);
      total += transitions(net);
    }
    min_driver[g] = lowest;
  }

  // Greedy sweep under a max shard load: each shard takes gates while they
  // fit, and every remaining gate opens its own shard once only as many
  // gates as unopened shards remain. A shard's load only grows as it
  // extends right and only shrinks as its start moves right, so the sweep
  // fits a load iff any K-way contiguous split does.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> counted_by(traces.size(), kNone);  // shard start
  auto fits = [&](long limit, std::vector<std::size_t>* cuts) {
    std::fill(counted_by.begin(), counted_by.end(), kNone);
    std::size_t first = 0;   // first gate of the open shard
    std::size_t opened = 1;  // shards opened so far
    long load = 0;
    // Load gate g adds to the shard starting at `start`; marks its external
    // nets as counted there (a shard that then closes never looks again).
    auto cost = [&](std::size_t g, std::size_t start) {
      long c = fires[g];
      if (min_driver[g] >= static_cast<long>(start)) return c;
      for (const Circuit::NetId net : circuit_->gate_inputs(g)) {
        const auto n = static_cast<std::size_t>(net);
        if (driver_[n] >= static_cast<long>(start) ||
            counted_by[n] == start) {
          continue;
        }
        counted_by[n] = start;
        c += transitions(net);
      }
      return c;
    };
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
  // at least its share of the firings.
  long fired = 0;
  for (const long f : fires) fired += f;
  long lo = fired / static_cast<long>(n_parts);
  long hi = total;
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

namespace {

// One cross-shard transition in flight between a producer's window and the
// matching consumer window.
struct BoundaryEvent {
  double t = 0.0;
  bool value = false;
};

}  // namespace

ShardedCircuit::Result ShardedCircuit::simulate(
    const std::vector<waveform::DigitalTrace>& stimuli, double t_begin,
    double t_end, const ShardedSimConfig& config) {
  CHARLIE_ASSERT(t_end > t_begin);
  CHARLIE_ASSERT_MSG(stimuli.size() == circuit_->n_inputs(),
                     "sharded circuit: one stimulus per primary input");
  const std::size_t n_shards = this->n_shards();

  // --- window schedule -----------------------------------------------------
  // W windows of quantum q; the last window's end is exactly t_end, and every
  // earlier boundary is strictly below it, so each advance() horizon strictly
  // increases and the union of windows is exactly (t_begin, t_end].
  const double span = t_end - t_begin;
  double quantum = config.window;
  if (!(quantum > 0.0)) quantum = span / (8.0 * static_cast<double>(n_shards));
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

  // --- sessions, one per gate range ----------------------------------------
  // Each session settles the gates before its range itself, so the nets it
  // reads from upstream shards start at the value their producer settles
  // to; their transitions arrive later through inject().
  std::vector<std::unique_ptr<SimSession>> sessions(n_shards);
  // Shard tasks poll only the wall clock and the cancellation token; the
  // event ceiling is enforced below, on the coordinating thread at step
  // granularity, so a budget trip is deterministic for a fixed config.
  RunBudget task_budget = config.budget;
  task_budget.max_events = 0;
  // Sessions over disjoint ranges settle and initialize concurrently: each
  // writes only its own gates' state.
  pool_->parallel_for(n_shards, 1, [&](std::size_t /*worker*/, std::size_t s) {
    sessions[s] = std::make_unique<SimSession>(
        *circuit_, cut_[s], cut_[s + 1], stimuli, t_begin, task_budget);
  });

  // --- exchange buckets ----------------------------------------------------
  // buckets[edge][w] holds the producer's window-w boundary transitions. The
  // producer fills it at wavefront step from_shard + w; the consumer drains
  // it at step to_shard + w (strictly later), so no bucket is ever touched
  // by two tasks of the same step and no locking is needed.
  std::vector<std::vector<std::vector<BoundaryEvent>>> buckets(edges_.size());
  for (auto& per_window : buckets) per_window.resize(n_windows);
  std::vector<std::size_t> export_cursor(edges_.size(), 0);

  // Per-(shard, window) event counts, written by the owning task (distinct
  // slot per task, so no synchronization beyond the pool's step barrier).
  // Recorded unconditionally: a subtraction per window task is free next to
  // the window's event processing, and it is the data load_imbalance() and
  // the shard.* metrics summarize.
  std::vector<std::vector<long>> shard_window_events(
      n_shards, std::vector<long>(n_windows, 0));

  // --- conservative wavefront ----------------------------------------------
  // Task (shard k, window w) runs at step k + w; all tasks of one step are
  // mutually independent (distinct sessions over disjoint gate ranges,
  // disjoint buckets), so each step is one parallel_for. Grain 1:
  // shard/window tasks are coarse already.
  RunStatus status = RunStatus::kOk;
  std::string error;
  RunGuard guard(config.budget);
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
            // Inject this window's boundary transitions in edge order; the
            // session time-sorts them stably, so the edge order breaks
            // (measure-zero) exact-time ties deterministically.
            for (const std::size_t edge_index : in_edges_[k]) {
              const Circuit::NetId net = edges_[edge_index].net;
              for (const BoundaryEvent& ev : buckets[edge_index][w]) {
                session.inject(net, ev.t, ev.value);
              }
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
              auto& bucket = buckets[edge_index][w];
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
      status = RunStatus::kFailed;
      error = e.what();
      break;
    }
    // Failures and deadline/cancellation trips are sticky in the session;
    // stop scheduling further steps once any shard has terminated. A
    // failure outranks a trip: its error is the more useful report.
    for (const auto& session : sessions) {
      if (session->status() == RunStatus::kFailed) {
        status = RunStatus::kFailed;
        break;
      }
      if (status == RunStatus::kOk) status = session->status();
    }
    // Deterministic event-budget check at step granularity: the summed
    // event count after a completed step does not depend on thread count.
    if (status == RunStatus::kOk && config.budget.enabled()) {
      long n_processed = 0;
      for (const auto& session : sessions) {
        n_processed +=
            session->n_stimulus_events() + session->n_gate_events();
      }
      status = guard.check(n_processed);
    }
    if (status != RunStatus::kOk) break;
  }

  // --- assembly ------------------------------------------------------------
  // Each net's trace moves out of the session whose gates drive it.
  Result result;
  result.owner = this;
  result.cut = cut_;
  result.n_windows = n_windows;
  result.shard_window_events = std::move(shard_window_events);
  result.traces.resize(circuit_->n_nets());
  long n_gate_events = 0;
  std::vector<long> max_heap_depth(n_shards, 0);
  // Overall horizon actually covered: the lowest point any shard fully
  // reached (a terminated run's traces are only trustworthy below it).
  double t_reached = t_end;
  // Guard counters sum in shard order; a failed run reports the lowest-
  // numbered failed shard's error, unless the pool itself failed.
  util::RunCounters counters;
  for (std::size_t s = 0; s < n_shards; ++s) {
    n_gate_events += sessions[s]->n_gate_events();
    Circuit::SimResult shard_result = sessions[s]->take_result();
    sessions[s].reset();
    max_heap_depth[s] = shard_result.max_heap_depth;
    t_reached = std::min(t_reached, shard_result.diagnostics.t_horizon);
    counters += shard_result.diagnostics.counters;
    if (status == RunStatus::kFailed && error.empty()) {
      error = shard_result.diagnostics.error;
    }
    for (std::size_t g = cut_[s]; g < cut_[s + 1]; ++g) {
      const auto net = static_cast<std::size_t>(circuit_->gate_output(g));
      result.traces[net] = std::move(shard_result.traces[net]);
    }
  }

  // Observability aggregate, filled in fixed shard/window/edge order on the
  // coordinating thread (deterministic for any thread count).
  result.metrics.add("shard.count", static_cast<long long>(n_shards));
  result.metrics.add("shard.windows", static_cast<long long>(n_windows));
  for (std::size_t s = 0; s < n_shards; ++s) {
    long shard_total = 0;
    for (std::size_t w = 0; w < n_windows; ++w) {
      const long n = result.shard_window_events[s][w];
      shard_total += n;
      result.metrics.observe("shard.window_events", static_cast<double>(n));
    }
    result.metrics.observe("shard.events", static_cast<double>(shard_total));
    result.metrics.observe("sim.max_heap_depth",
                           static_cast<double>(max_heap_depth[s]));
  }
  long long boundary_transitions = 0;
  for (std::size_t e = 0; e < buckets.size(); ++e) {
    for (std::size_t w = 0; w < n_windows; ++w) {
      result.metrics.observe("shard.boundary_bucket",
                             static_cast<double>(buckets[e][w].size()));
      boundary_transitions += static_cast<long long>(buckets[e][w].size());
    }
  }
  result.metrics.add("shard.boundary_transitions", boundary_transitions);
  obs::absorb_run_counters(result.metrics, counters);
  // The monolithic engine's event count is its processed stimulus events
  // plus gate firings. Shard-local stimulus counts double-count boundary
  // injections and multi-shard fanout of primary inputs, so the stimulus
  // share is recomputed from the global traces instead.
  long n_stimulus_events = 0;
  for (std::size_t i = 0; i < stimuli.size(); ++i) {
    const waveform::DigitalTrace& stimulus = stimuli[i];
    waveform::DigitalTrace windowed(stimulus.value_at(t_begin), {});
    for (std::size_t k = 0; k < stimulus.n_transitions(); ++k) {
      const double t = stimulus.transitions()[k];
      if (t > t_begin && t <= t_end) windowed.append_transition(t);
    }
    n_stimulus_events += static_cast<long>(windowed.n_transitions());
    result.traces[static_cast<std::size_t>(circuit_->input_net(i))] =
        std::move(windowed);
  }
  result.n_events = n_stimulus_events + n_gate_events;
  result.status = status;
  result.diagnostics =
      guard.finish(status, result.n_events,
                   status == RunStatus::kOk ? t_end : t_reached, counters);
  result.diagnostics.error = error;

  // Re-cut on this run's measured work for the next run.
  if (status == RunStatus::kOk && result.n_events > 0) {
    std::vector<std::size_t> next = balanced_cut(result.traces);
    if (next != cut_) set_cut(std::move(next));
  }
  return result;
}

}  // namespace charlie::sim
