#include "sim/sharded_circuit.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "obs/trace_recorder.hpp"
#include "sim/sim_session.hpp"
#include "util/error.hpp"

namespace charlie::sim {

namespace {

// The dataflow schedule of one run: the B x W (block, window) tasks,
// handed to the workers that call work(). Task (k, w) is ready once
// (k - 1, w) and (k, w - 1) have finished, and ready tasks go out in
// wavefront order (k + w, then k). A gated schedule starts the tasks of
// step s = k + w only once step s - 1 has finished and the gate has
// agreed. A task that reports a stop at step s leaves the tasks of steps
// up to s to run and releases none after it. Idle workers wait on a
// condition variable, woken one per task that becomes runnable; the
// schedule ends once no task runs and none may start, or when a worker
// throws.
class Wavefront {
 public:
  Wavefront(std::size_t n_blocks, std::size_t n_windows, bool gated)
      : n_blocks_(n_blocks), n_windows_(n_windows), finished_(n_blocks, 0),
        open_(gated ? 0 : kAll) {
    ready_.reserve(n_blocks);
    ready_.push_back({0, 0});
    if (gated) {
      // Step s holds the tasks of blocks max(0, s - W + 1) .. min(B - 1, s).
      step_left_.resize(n_blocks + n_windows - 1);
      for (std::size_t s = 0; s < step_left_.size(); ++s) {
        const std::size_t k_lo = s >= n_windows ? s - n_windows + 1 : 0;
        step_left_[s] = std::min(n_blocks - 1, s) - k_lo + 1;
      }
    }
  }

  // One worker's share: run(k, w) runs task (k, w) and returns false to
  // stop the schedule after its step; gate(), called in a gated schedule
  // once a step has finished and before the next starts, returns false to
  // stop instead. Returns once the schedule holds nothing else for it. A
  // throw stops the schedule and propagates.
  template <class Run, class Gate>
  void work(const Run& run, const Gate& gate) {
    std::unique_lock<std::mutex> lock(mutex_);
    try {
      while (true) {
        ++n_waiting_;
        wake_.wait(lock, [&] { return over() || has_work(); });
        --n_waiting_;
        if (over()) break;
        std::pop_heap(ready_.begin(), ready_.end(), later);
        const Task task = ready_.back();
        ready_.pop_back();
        ++n_running_;
        lock.unlock();
        const bool go_on = run(task.block, task.step - task.block);
        lock.lock();
        finish(task, go_on, gate);
      }
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      stop_ = true;
      wake_.notify_all();
      throw;
    }
    wake_.notify_all();
  }

 private:
  static constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  struct Task {
    std::size_t step = 0;
    std::size_t block = 0;
  };
  // Heap order: the top is the first task in wavefront order.
  static bool later(const Task& a, const Task& b) {
    return a.step != b.step ? a.step > b.step : a.block > b.block;
  }

  bool may_start(const Task& task) const {
    return task.step <= open_ && task.step <= last_;
  }
  bool has_work() const { return !ready_.empty() && may_start(ready_.front()); }
  // Releases happen only as tasks finish: with none running and none
  // startable, none ever will be.
  bool over() const { return stop_ || (n_running_ == 0 && !has_work()); }

  // Queues a task whose predecessors have finished; true if it may start.
  bool queue(const Task& task) {
    ready_.push_back(task);
    std::push_heap(ready_.begin(), ready_.end(), later);
    return may_start(task);
  }

  template <class Gate>
  void finish(const Task& task, bool go_on, const Gate& gate) {
    --n_running_;
    const std::size_t k = task.block;
    const std::size_t w = task.step - k;
    finished_[k] = w + 1;
    // The steps up to a stop still run whole: which tasks run, and so
    // which sessions have stopped by then, does not depend on thread
    // timing.
    if (!go_on) last_ = std::min(last_, task.step);
    std::size_t runnable = 0;
    if (w + 1 < n_windows_ && (k == 0 || finished_[k - 1] > w + 1)) {
      runnable += queue({task.step + 1, k}) ? 1 : 0;
    }
    if (k + 1 < n_blocks_ && finished_[k + 1] == w) {
      runnable += queue({task.step + 1, k + 1}) ? 1 : 0;
    }
    if (!step_left_.empty() && --step_left_[task.step] == 0 &&
        task.step < last_ && task.step + 1 < step_left_.size()) {
      // Every task of this step and the ones before has finished, none of
      // the next has started, and all of the next are queued. The gate
      // reads the blocks' sessions, so it runs under the lock: no task
      // starts meanwhile.
      if (!gate()) {
        stop_ = true;
        return;
      }
      open_ = task.step + 1;
      runnable = ready_.size();
    }
    // This worker takes one of them itself.
    for (std::size_t i = 1; i < runnable && i <= n_waiting_; ++i) {
      wake_.notify_one();
    }
  }

  const std::size_t n_blocks_;
  const std::size_t n_windows_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<std::size_t> finished_;   // windows each block has finished
  std::vector<std::size_t> step_left_;  // gated: unfinished tasks per step
  std::vector<Task> ready_;             // a heap, by later()
  std::size_t open_;                    // gated: last step the gate opened
  std::size_t last_ = kAll;             // the lowest step that stopped
  std::size_t n_running_ = 0;
  std::size_t n_waiting_ = 0;           // workers waiting on wake_
  bool stop_ = false;                   // gate refused or a worker threw
};

}  // namespace

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
  Result result;
  result.owner = this;
  result.cut = cut_;
  circuit_->prepare_run(stimuli, t_begin, t_end, result);

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
  result.n_windows = n_windows;
  auto window_end = [&](std::size_t w) {
    return w + 1 == n_windows ? t_end
                              : t_begin + static_cast<double>(w + 1) * quantum;
  };

  // At most B tasks are ever ready at once: more threads would only wait.
  std::size_t n_threads = config.n_threads;
  if (n_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n_threads = hw > 0 ? hw : 1;
  }
  n_threads = std::min(n_threads, n_shards);
  result.n_threads = n_threads;
  if (pool_ == nullptr || pool_->n_threads() != n_threads) {
    pool_ = std::make_unique<util::ThreadPool>(n_threads);
  }

  // --- sessions, one per block ---------------------------------------------
  // Every session starts its range from the run's prepared traces and
  // appends its nets' transitions to them, under its block's lock. The
  // transitions of the nets a block reads, primary inputs included, arrive
  // through pull().
  scratch_.resize(n_shards);
  std::vector<std::unique_ptr<SimSession>> sessions(n_shards);
  SimSession::BlockLocks locks(cut_);
  // Block tasks poll only the wall clock and the cancellation token, each
  // through a guard of its own; the event ceiling is enforced between
  // steps below, so a budget trip is deterministic for a fixed config.
  RunBudget task_budget = config.budget;
  task_budget.max_events = 0;
  std::vector<RunGuard> task_guards(n_shards, RunGuard(task_budget));

  // Per-(block, window) event counts, written by the owning task (distinct
  // slot per task, read after the pool's barrier). Recorded
  // unconditionally: a subtraction per window task is free next to the
  // window's event processing, and it is the data load_imbalance() and
  // the shard.* metrics summarize.
  result.shard_window_events.assign(n_shards,
                                    std::vector<long>(n_windows, 0));
  // The window in which each block's session stopped; n_windows if it
  // never did.
  std::vector<std::size_t> stopped_in(n_shards, n_windows);

  // --- dataflow wavefront --------------------------------------------------
  // Task (block k, window w) starts once (k - 1, w) and (k, w - 1) have
  // finished: by induction every upstream block has then finished window
  // w, and every transition up to its end is in the run's traces. The task
  // pulls those, then advances; sessions over disjoint gate ranges, each
  // appending only to its own nets' traces. With an event ceiling, step s
  // = k + w starts only once step s - 1 has finished under the ceiling:
  // the summed event count after a completed step does not depend on
  // thread timing. A session that stops at step s lets the rest of the
  // steps up to s run and stops the release after them; the tasks in
  // flight finish.
  Wavefront wavefront(n_shards, n_windows, config.budget.max_events > 0);
  RunStatus stopped = RunStatus::kOk;  // by the pool or the event ceiling
  std::string pool_error;
  auto run = [&](std::size_t k, std::size_t w) {
    SimSession& session = *sessions[k];
    obs::ScopedSpan obs_span("shard.task", "shard", static_cast<long long>(k),
                             "window", static_cast<long long>(w));
    const long events_before =
        session.n_stimulus_events() + session.n_gate_events();
    session.pull(window_end(w));
    session.advance(window_end(w));
    result.shard_window_events[k][w] =
        session.n_stimulus_events() + session.n_gate_events() - events_before;
    if (session.status() == RunStatus::kOk) return true;
    stopped_in[k] = w;
    return false;
  };
  auto gate = [&] {
    long n_processed = 0;
    for (const auto& session : sessions) n_processed += session->n_events();
    stopped = guard.check(n_processed);
    return stopped == RunStatus::kOk;
  };
  try {
    // Sessions over disjoint ranges initialize concurrently: each writes
    // only its own gates' state and scratch.
    pool_->parallel_for(n_shards, 1,
                        [&](std::size_t /*worker*/, std::size_t k) {
                          sessions[k] = std::make_unique<SimSession>(
                              *circuit_, cut_[k], cut_[k + 1], t_begin,
                              result.traces, scratch_[k], task_guards[k],
                              locks);
                        });
    // One item per worker; each runs the schedule until it ends.
    pool_->parallel_for(n_threads, 1,
                        [&](std::size_t /*worker*/, std::size_t /*item*/) {
                          wavefront.work(run, gate);
                        });
  } catch (const std::exception& e) {
    // A fault outside every session's advance(): the pool itself, a
    // session's construction or a pull() assertion.
    stopped = RunStatus::kFailed;
    pool_error = e.what();
  }

  // --- reduction -----------------------------------------------------------
  // The sessions fold into the run's totals as in Circuit::simulate, by
  // the step at which each stopped (one past its last if it never did),
  // then by block: a failure outranks a trip, and a failed run reports the
  // error of the first failed task in wavefront order, unless the pool
  // itself failed. Every task up to the first stop's step ran, so that
  // task does not depend on thread timing. The metrics go in block order.
  std::vector<std::size_t> fold_order(n_shards);
  std::iota(fold_order.begin(), fold_order.end(), std::size_t{0});
  std::stable_sort(fold_order.begin(), fold_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return a + stopped_in[a] < b + stopped_in[b];
                   });
  for (const std::size_t s : fold_order) {
    if (sessions[s] != nullptr) {
      sessions[s]->add_to(result);
    } else {
      // Never built (the run failed first): its nets keep their settled
      // values.
      result.diagnostics.t_horizon = t_begin;
    }
  }
  result.metrics.add("shard.count", static_cast<long long>(n_shards));
  result.metrics.add("shard.windows", static_cast<long long>(n_windows));
  long long pulled = 0;
  for (std::size_t s = 0; s < n_shards; ++s) {
    const SimSession* session = sessions[s].get();
    if (session != nullptr) pulled += session->n_pulled();
    long shard_total = 0;
    for (const long n : result.shard_window_events[s]) {
      shard_total += n;
      result.metrics.observe("shard.window_events", static_cast<double>(n));
    }
    result.metrics.observe("shard.events", static_cast<double>(shard_total));
    result.metrics.observe(
        "sim.max_heap_depth",
        static_cast<double>(session != nullptr ? session->max_heap_depth()
                                               : 0));
  }
  if (stopped == RunStatus::kFailed) {
    result.status = RunStatus::kFailed;
    result.diagnostics.error = pool_error;
  } else if (result.status == RunStatus::kOk) {
    result.status = stopped;
  }
  // The ceiling is checked between steps only: a run that finished every
  // step past it trips too, as Circuit::simulate's does; one that ends at
  // exactly the ceiling is kOk there and here.
  if (result.status == RunStatus::kOk && config.budget.max_events > 0 &&
      result.n_events > config.budget.max_events) {
    result.status = RunStatus::kBudgetExhausted;
  }
  result.diagnostics.status = result.status;
  result.metrics.add("shard.boundary_transitions", pulled);
  result.metrics.add("sim.equal_time_ties", result.equal_time_ties);
  obs::absorb_run_counters(result.metrics, result.diagnostics.counters);

  // Re-cut on this run's measured work for the next run.
  if (result.ok() && result.n_events > 0) {
    std::vector<std::size_t> next = balanced_cut(result.traces);
    if (next != cut_) set_cut(std::move(next));
  }
  return result;
}

}  // namespace charlie::sim
