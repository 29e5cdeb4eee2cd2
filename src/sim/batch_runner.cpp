#include "sim/batch_runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace_recorder.hpp"
#include "sim/sim_session.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace charlie::sim {

Histogram::Histogram(double lo, double hi, std::size_t n_bins)
    : lo_(lo), hi_(hi), bins_(n_bins, 0) {
  CHARLIE_ASSERT(hi > lo);
  CHARLIE_ASSERT(n_bins >= 1);
}

void Histogram::add(double x) {
  // A default-constructed histogram has no bins; letting the in-range path
  // below run would index an empty vector.
  CHARLIE_ASSERT_MSG(!bins_.empty(), "histogram: add() without a range");
  ++count_;
  sum_ += x;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const auto bin = static_cast<std::size_t>(
      static_cast<double>(bins_.size()) * (x - lo_) / (hi_ - lo_));
  ++bins_[std::min(bin, bins_.size() - 1)];
}

void Histogram::merge(const Histogram& other) {
  CHARLIE_ASSERT(other.lo_ == lo_ && other.hi_ == hi_ &&
                 other.bins_.size() == bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
}

const NetAggregate& BatchResult::net(const std::string& name) const {
  for (const auto& agg : nets) {
    if (agg.net == name) return agg;
  }
  throw ConfigError("batch result: net \"" + name + "\" was not observed");
}

std::vector<NetCriticality> BatchResult::criticality_ranking() const {
  std::vector<std::string> names;
  names.reserve(nets.size());
  for (const auto& agg : nets) names.push_back(agg.net);
  return rank_net_criticality(names, stats.criticality);
}

BatchRunner::BatchRunner(CircuitFactory factory, std::string output_net,
                         BatchConfig config)
    : BatchRunner(std::move(factory),
                  std::vector<std::string>{std::move(output_net)},
                  std::move(config)) {}

BatchRunner::BatchRunner(CircuitFactory factory,
                         std::vector<std::string> output_nets,
                         BatchConfig config)
    : factory_(std::move(factory)),
      output_nets_(std::move(output_nets)),
      config_(std::move(config)) {
  CHARLIE_ASSERT(factory_ != nullptr);
  CHARLIE_ASSERT(config_.n_runs >= 1);
  CHARLIE_ASSERT_MSG(!output_nets_.empty(),
                     "batch runner: at least one observed net");
}

namespace {

struct NetStats {
  long long transitions = 0;
  Histogram pulse_width;
  Histogram response_delay;
};

struct RunStats {
  long n_events = 0;
  long max_heap_depth = 0;
  long equal_time_ties = 0;
  RunDiagnostics diagnostics;
  std::vector<NetStats> nets;  // parallel to the observed-net list;
                               // empty when the run did not finish kOk
  // Largest response delay of the run across all observed nets, and the
  // index of the net it occurred on; -1 when the run produced no response
  // sample (or did not finish kOk).
  double critical_delay = -1.0;
  int critical_net = -1;
};

RunStats run_one(Circuit& circuit, const std::vector<Circuit::NetId>& outputs,
                 Circuit::SimResult& arena, SimSession::Scratch& scratch,
                 const BatchConfig& config, const RunSpec& spec,
                 ProcessBinder* binder, double pulse_hi, double response_hi) {
  // Retarget the worker's clone to this run's process sample before any
  // channel state is initialized (the session reinitializes all of it).
  if (binder != nullptr) binder->bind(spec.point);
  util::Rng rng(spec.stimulus_seed);
  const auto stimuli =
      waveform::generate_traces(config.trace, circuit.n_inputs(), rng);
  double t_last = config.trace.t_start;
  for (const auto& trace : stimuli) {
    if (!trace.empty()) t_last = std::max(t_last, trace.transitions().back());
  }
  const double t_end = t_last + config.t_settle;
  // Circuit::simulate's routine over the worker's trace arena and scratch:
  // storage is reset in place, not reallocated. It never throws for a run
  // failure -- a failure or budget trip comes back as a structured non-kOk
  // result.
  SimSession::run_blocks(circuit, stimuli, 0.0, t_end, config.budget, arena,
                         scratch);
  const Circuit::SimResult& result = arena;

  RunStats stats;
  stats.n_events = result.n_events;
  stats.max_heap_depth = result.max_heap_depth;
  stats.equal_time_ties = result.equal_time_ties;
  stats.diagnostics = result.diagnostics;
  // A terminated run contributes its diagnostics and event count but no
  // histogram samples: partial traces would skew the distributions
  // silently.
  if (!result.ok()) return stats;

  // One cursor per input: the next transition of its stimulus, and the
  // latest one at or before the time a net's sweep has reached (-inf before
  // the first).
  struct Cursor {
    const double* next;
    const double* end;
    double latest;
  };
  constexpr double kNone = -std::numeric_limits<double>::infinity();
  std::vector<Cursor> cursors(stimuli.size());
  stats.nets.reserve(outputs.size());
  for (std::size_t n = 0; n < outputs.size(); ++n) {
    NetStats net;
    net.pulse_width = Histogram(0.0, pulse_hi, config.histogram_bins);
    net.response_delay = Histogram(0.0, response_hi, config.histogram_bins);

    const auto& out = result.trace(outputs[n]);
    net.transitions = static_cast<long long>(out.n_transitions());
    for (std::size_t k = 1; k < out.n_transitions(); ++k) {
      net.pulse_width.add(out.transitions()[k] - out.transitions()[k - 1]);
    }

    // Response delay: output transition time minus the latest stimulus
    // transition at or before it, the latest over every input. The output
    // and each input's transitions are time-sorted, so each cursor only
    // moves forward.
    for (std::size_t i = 0; i < stimuli.size(); ++i) {
      const std::vector<double>& times = stimuli[i].transitions();
      cursors[i] = {times.data(), times.data() + times.size(), kNone};
    }
    for (const double t : out.transitions()) {
      double latest = kNone;
      for (Cursor& c : cursors) {
        while (c.next != c.end && *c.next <= t) c.latest = *c.next++;
        latest = std::max(latest, c.latest);
      }
      if (latest == kNone) continue;  // no stimulus transition yet
      const double delay = t - latest;
      net.response_delay.add(delay);
      // Strict > ties the run's critical delay to the lowest net index.
      if (delay > stats.critical_delay) {
        stats.critical_delay = delay;
        stats.critical_net = static_cast<int>(n);
      }
    }
    stats.nets.push_back(std::move(net));
  }
  return stats;
}

}  // namespace

void BatchRunner::ensure_workers() {
  if (pool_ != nullptr) return;
  // Everything is built into locals and committed at the end: a throw below
  // (a bad variation span) leaves no half-built runner behind, so every
  // later run() re-raises it instead of running without binders.
  auto pool = std::make_unique<util::ThreadPool>(config_.n_threads);
  const std::size_t n_workers = pool->n_threads();

  // One circuit clone per worker, built up front on this thread (the
  // factory need not be thread-safe). Each run's session reinitializes all
  // channel state and reuses the worker's trace arena, so a clone serves
  // every run its worker claims, across every run() call.
  std::vector<Worker> workers(n_workers);
  for (Worker& w : workers) {
    w.circuit = factory_();
    CHARLIE_ASSERT(w.circuit != nullptr);
    // Resolved per clone: a factory is not required to assign net ids in
    // the same order on every call.
    w.outputs.reserve(output_nets_.size());
    for (const auto& name : output_nets_) {
      w.outputs.push_back(w.circuit->find_net(name));
    }
  }

  // Variation batches: a per-worker binder owning the worker-local table
  // copies. Fail fast on a span that leaves a cell's validity region:
  // overdrive falls with vdd_scale and rises with vth_shift (drive_scale
  // only scales the resistances), so the box's slow corner is the one
  // point that can close it. Deriving every distinct table there once
  // throws the ConfigError here, before any run executes.
  const ProcessVariation& v = config_.variation;
  if (v.enabled()) {
    v.validate();
    for (Worker& w : workers) {
      w.binder = std::make_unique<ProcessBinder>(*w.circuit, v.vdd_nominal);
    }
    core::ProcessPoint slow;
    slow.vdd_scale = 1.0 - v.max_sigma * v.vdd_sigma;
    slow.vth_shift = v.max_sigma * v.vth_sigma;
    slow.drive_scale = 1.0 - v.max_sigma * v.drive_sigma;
    workers.front().binder->bind(slow);
  }
  workers_ = std::move(workers);
  pool_ = std::move(pool);
}

BatchResult BatchRunner::run() {
  ensure_workers();
  const std::size_t n_workers = pool_->n_threads();

  const double pulse_hi = config_.pulse_width_hi > 0.0
                              ? config_.pulse_width_hi
                              : 4.0 * config_.trace.mu;
  const double response_hi = config_.response_delay_hi > 0.0
                                 ? config_.response_delay_hi
                                 : config_.trace.mu;

  // Per-run results indexed by run (not worker): the reduction below walks
  // them in run order, which is what makes the aggregate independent of
  // which worker executed which run.
  std::vector<RunStats> per_run(config_.n_runs);
  // Exactly one run matches capture_run, so the slot is written by at most
  // one worker (no synchronization needed beyond the pool's batch barrier).
  std::vector<BatchResult::CapturedTrace> captured;
  pool_->parallel_for(
      config_.n_runs, [&](std::size_t worker, std::size_t run) {
        Worker& w = workers_[worker];
        obs::ScopedSpan obs_span("batch.run", "run",
                                 static_cast<long long>(run), "events", 0);
        // Fresh per-run fault tallies: an armed plan's fire index depends
        // only on this run's own content, not on which worker executes it
        // or how runs interleave (thread-count-invariant fault placement).
        if (util::FaultInjector::armed()) {
          util::FaultInjector::reset_local_hits();
        }
        // The run's content derives from its global index through
        // counter-based streams: splitting or re-basing a batch via
        // first_run_index reproduces per-run content exactly.
        const std::uint64_t index = config_.first_run_index + run;
        RunSpec spec;
        spec.stimulus_seed =
            util::CounterRng(config_.base_seed, index).next_u64();
        if (config_.variation.enabled()) {
          spec.point = config_.variation.sample(config_.base_seed, index);
        }
        try {
          per_run[run] = run_one(*w.circuit, w.outputs, w.arena, w.scratch,
                                 config_, spec, w.binder.get(), pulse_hi,
                                 response_hi);
          obs_span.set_value1(per_run[run].n_events);
          if (config_.capture_run == static_cast<long>(run)) {
            // Copy out of the arena before this worker's next run resets it.
            for (std::size_t i = 0; i < w.circuit->n_inputs(); ++i) {
              const Circuit::NetId id = w.circuit->input_net(i);
              captured.push_back({w.circuit->net_name(id), w.arena.trace(id)});
            }
            for (const Circuit::NetId id : w.outputs) {
              captured.push_back({w.circuit->net_name(id), w.arena.trace(id)});
            }
          }
        } catch (const std::exception& e) {
          // Isolation backstop for failures outside the engine's no-throw
          // boundary (stimulus generation, accounting): only this run
          // fails; the worker and its arena stay usable.
          per_run[run] = RunStats{};
          per_run[run].diagnostics.status = RunStatus::kFailed;
          per_run[run].diagnostics.error = e.what();
        }
      });

  // Sequential reduction in run order: bit-identical for any thread count.
  BatchResult result;
  result.n_runs = config_.n_runs;
  result.n_threads = n_workers;
  result.events_per_run.reserve(config_.n_runs);
  result.nets.reserve(output_nets_.size());
  for (const auto& name : output_nets_) {
    NetAggregate agg;
    agg.net = name;
    agg.pulse_width = Histogram(0.0, pulse_hi, config_.histogram_bins);
    agg.response_delay = Histogram(0.0, response_hi, config_.histogram_bins);
    result.nets.push_back(std::move(agg));
  }
  result.diagnostics.reserve(config_.n_runs);
  result.critical_delays.reserve(config_.n_runs);
  result.stats.criticality.assign(result.nets.size(), 0);
  std::vector<double> sample;  // critical delays of contributing runs
  sample.reserve(config_.n_runs);
  for (RunStats& stats : per_run) {
    result.total_events += stats.n_events;
    result.events_per_run.push_back(stats.n_events);
    // Observability aggregate, folded in run order like everything else.
    obs::absorb_run_counters(result.metrics, stats.diagnostics.counters);
    result.metrics.observe("sim.events_per_run",
                           static_cast<double>(stats.n_events));
    result.metrics.observe("sim.max_heap_depth",
                           static_cast<double>(stats.max_heap_depth));
    result.metrics.add("sim.equal_time_ties", stats.equal_time_ties);
    result.diagnostics.push_back(std::move(stats.diagnostics));
    if (result.diagnostics.back().status != RunStatus::kOk) {
      ++result.n_failed;
      result.critical_delays.push_back(-1.0);
      continue;  // no histogram/statistics contribution from a failed run
    }
    result.critical_delays.push_back(stats.critical_delay);
    if (stats.critical_delay >= 0.0) {
      sample.push_back(stats.critical_delay);
      ++result.stats.criticality[static_cast<std::size_t>(
          stats.critical_net)];
    }
    for (std::size_t n = 0; n < result.nets.size(); ++n) {
      result.nets[n].transitions += stats.nets[n].transitions;
      result.nets[n].pulse_width.merge(stats.nets[n].pulse_width);
      result.nets[n].response_delay.merge(stats.nets[n].response_delay);
    }
  }
  result.metrics.add("batch.runs", static_cast<long long>(result.n_runs));
  result.metrics.add("batch.runs_failed",
                     static_cast<long long>(result.n_failed));
  result.metrics.add("batch.events", result.total_events);
  result.captured = std::move(captured);

  // Distribution queries over the per-run critical delays. `sample` was
  // collected in run order and is reduced with fixed-order arithmetic, so
  // every statistic is bit-identical for any thread count.
  BatchStats& st = result.stats;
  st.n_samples = sample.size();
  if (!sample.empty()) {
    double sum = 0.0;
    for (const double x : sample) sum += x;
    st.mean = sum / static_cast<double>(sample.size());
    double ss = 0.0;
    for (const double x : sample) ss += (x - st.mean) * (x - st.mean);
    st.stddev = std::sqrt(ss / static_cast<double>(sample.size()));
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    st.min = sorted.front();
    st.max = sorted.back();
    st.quantiles.reserve(config_.quantiles.size());
    for (const double q : config_.quantiles) {
      // Nearest-rank: the ceil(q n)-th order statistic, clamped to the
      // sample range for q outside (0, 1].
      const double rank = std::ceil(q * static_cast<double>(sorted.size()));
      const auto i = static_cast<std::size_t>(std::clamp(
          rank, 1.0, static_cast<double>(sorted.size())));
      st.quantiles.emplace_back(q, sorted[i - 1]);
    }
    if (config_.stat_deadline > 0.0) {
      st.deadline = config_.stat_deadline;
      for (const double x : sample) {
        if (x <= st.deadline) ++st.n_meeting_deadline;
      }
      st.yield = static_cast<double>(st.n_meeting_deadline) /
                 static_cast<double>(st.n_samples);
    }
  } else {
    for (const double q : config_.quantiles) st.quantiles.emplace_back(q, 0.0);
    if (config_.stat_deadline > 0.0) st.deadline = config_.stat_deadline;
  }
  return result;
}

}  // namespace charlie::sim
