#include "sim/sim_session.hpp"

#include <algorithm>
#include <array>

#include "obs/trace_recorder.hpp"
#include "util/error.hpp"

namespace charlie::sim {

SimSession::SimSession(Circuit& circuit, std::size_t gate_begin,
                       std::size_t gate_end,
                       const std::vector<waveform::DigitalTrace>& stimuli,
                       double t_begin, const RunBudget& budget,
                       Circuit::SimResult&& arena)
    : circuit_(&circuit), gate_begin_(gate_begin), gate_end_(gate_end),
      whole_(gate_begin == 0 && gate_end == circuit.n_gates()),
      t_begin_(t_begin), horizon_(t_begin), guard_(budget),
      guard_active_(budget.enabled()), t_processed_(t_begin),
      result_(std::move(arena)) {
  CHARLIE_ASSERT_MSG(gate_begin <= gate_end && gate_end <= circuit.n_gates(),
                     "sim session: gate range out of bounds");
  CHARLIE_ASSERT_MSG(stimuli.size() == circuit_->primary_inputs_.size(),
                     "circuit: one stimulus trace per primary input");
  // Guard sites bump the executing thread's counters: each call adds its
  // own increments, on whichever thread runs it.
  const util::RunCounters before = util::RunCounters::local();
  initialize(stimuli);
  counters_ += util::RunCounters::local() - before;
}

namespace {

using FanoutList = std::vector<std::pair<std::size_t, int>>;

// First fanout entry at or after gate `first`: lists are in gate order, so
// a gate range's readers of a net are one contiguous run.
FanoutList::const_iterator fanout_from(const FanoutList& fanout,
                                       std::size_t first) {
  if (first == 0) return fanout.begin();
  return std::lower_bound(
      fanout.begin(), fanout.end(), first,
      [](const std::pair<std::size_t, int>& entry, std::size_t gate) {
        return entry.first < gate;
      });
}

}  // namespace

bool SimSession::reads(Circuit::NetId net) const {
  const FanoutList& fanout =
      circuit_->fanout_[static_cast<std::size_t>(net)];
  const auto it = fanout_from(fanout, gate_begin_);
  return it != fanout.end() && it->first < gate_end_;
}

void SimSession::initialize(
    const std::vector<waveform::DigitalTrace>& stimuli) {
  Circuit& c = *circuit_;
  const std::size_t n_nets = c.n_nets();

  // --- steady-state initialization (topological settle) -------------------
  // Window convention (see circuit.hpp): value_at(t_begin) already includes
  // a transition at exactly t_begin; only strictly later transitions become
  // events.
  net_value_.assign(n_nets, 0);
  for (std::size_t i = 0; i < stimuli.size(); ++i) {
    net_value_[static_cast<std::size_t>(c.primary_inputs_[i])] =
        stimuli[i].value_at(t_begin_) ? 1 : 0;
  }
  // Gates were appended after their input nets exist, so a forward sweep
  // settles an acyclic circuit (two passes as a fixpoint safety net). The
  // sweep covers every gate up to the range end, because earlier gates'
  // nets feed the range, but writes gate state only inside the range: the
  // other gates belong to other sessions.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t g = 0; g < gate_end_; ++g) {
      Circuit::Gate& gate = c.gates_[g];
      std::array<bool, kMaxGateArity> in_values{};
      for (std::size_t p = 0; p < gate.inputs.size(); ++p) {
        in_values[p] =
            net_value_[static_cast<std::size_t>(gate.inputs[p])] != 0;
      }
      const bool out =
          eval_gate(gate.kind, in_values[0], in_values[1], in_values[2]);
      net_value_[static_cast<std::size_t>(gate.output)] = out ? 1 : 0;
      if (g >= gate_begin_) {
        gate.in_values = in_values;
        gate.zero_time_value = out;
      }
    }
  }
  for (std::size_t g = gate_begin_; g < gate_end_; ++g) {
    Circuit::Gate& gate = c.gates_[g];
    if (gate.sis) {
      gate.sis->initialize(t_begin_, gate.zero_time_value);
    } else {
      gate.mis->initialize(
          t_begin_,
          std::vector<bool>(gate.in_values.begin(),
                            gate.in_values.begin() + gate.inputs.size()));
    }
  }

  // --- stimulus stream -----------------------------------------------------
  // All primary-input events are known up front: one sorted vector walked
  // by an index beats pushing them through the gate heap. Equal-time order
  // is input-declaration order (stable sort over per-input appends), and a
  // stimulus always precedes gate firings at the same instant. Transitions
  // beyond the final horizon simply never get processed. A partial range
  // queues only the inputs its gates read.
  auto queued = [&](std::size_t i) {
    return whole_ || reads(c.primary_inputs_[i]);
  };
  std::size_t n_stim = 0;
  for (std::size_t i = 0; i < stimuli.size(); ++i) {
    if (queued(i)) n_stim += stimuli[i].n_transitions();
  }
  stim_events_.clear();
  stim_events_.reserve(n_stim);
  for (std::size_t i = 0; i < stimuli.size(); ++i) {
    if (!queued(i)) continue;
    const Circuit::NetId net = c.primary_inputs_[i];
    const auto& trace = stimuli[i];
    for (std::size_t k = 0; k < trace.n_transitions(); ++k) {
      const double t = trace.transitions()[k];
      if (t <= t_begin_) continue;
      stim_events_.push_back({t, net, trace.is_rising(k)});
    }
  }
  std::stable_sort(stim_events_.begin(), stim_events_.end(),
                   [](const StimulusEvent& x, const StimulusEvent& y) {
                     return x.t < y.t;
                   });

  // --- result traces -------------------------------------------------------
  // Nothing is reserved per net: activity differs by orders of magnitude
  // across nets (glitch cancellation thins it with logic depth), so any
  // stimulus-derived guess over-reserves most of them. Traces grow
  // geometrically; the arena path resets existing traces in place, keeping
  // their capacity, and drops extra traces from a larger previous circuit.
  result_.n_events = 0;
  if (result_.traces.size() > n_nets) result_.traces.resize(n_nets);
  for (std::size_t i = 0; i < result_.traces.size(); ++i) {
    result_.traces[i].reset(net_value_[i] != 0);
  }
  result_.traces.reserve(n_nets);
  for (std::size_t i = result_.traces.size(); i < n_nets; ++i) {
    result_.traces.emplace_back(net_value_[i] != 0, std::vector<double>{});
  }

  heap_.reset(gate_end_ - gate_begin_);
  seq_ = 0;
  deferred_.clear();
  is_deferred_.assign(gate_end_ - gate_begin_, 0);
}

void SimSession::reschedule(std::size_t gate_index) {
  Circuit::Gate& gate = circuit_->gates_[gate_index];
  const std::size_t slot = gate_index - gate_begin_;
  const auto pending = gate.sis ? gate.sis->pending() : gate.mis->pending();
  if (pending.has_value() && pending->t <= horizon_) {
    heap_.schedule(slot, pending->t, seq_++, pending->value);
    return;
  }
  heap_.cancel(slot);
  // A pending event beyond the horizon must be re-armed when the horizon
  // moves; remember the gate (once -- insertion order preserves the
  // original schedule order across windows).
  if (pending.has_value() && is_deferred_[slot] == 0) {
    is_deferred_[slot] = 1;
    deferred_.push_back(gate_index);
  }
}

void SimSession::propagate_net_change(Circuit::NetId net, double t,
                                      bool value, bool record) {
  Circuit& c = *circuit_;
  const auto net_index = static_cast<std::size_t>(net);
  if ((net_value_[net_index] != 0) == value) return;  // defensive
  net_value_[net_index] = value ? 1 : 0;
  if (record) result_.traces[net_index].append_transition(t);
  const FanoutList& fanout = c.fanout_[net_index];
  for (auto it = fanout_from(fanout, gate_begin_);
       it != fanout.end() && it->first < gate_end_; ++it) {
    const auto [gate_index, port] = *it;
    Circuit::Gate& gate = c.gates_[gate_index];
    gate.in_values[static_cast<std::size_t>(port)] = value;
    if (gate.sis) {
      const bool nv = eval_gate(gate.kind, gate.in_values[0],
                                gate.in_values[1], gate.in_values[2]);
      if (nv != gate.zero_time_value) {
        gate.zero_time_value = nv;
        gate.sis->on_input(t, nv);
      }
    } else {
      gate.mis->on_input(t, port, value);
    }
    reschedule(gate_index);
  }
}

void SimSession::inject(Circuit::NetId net, double t, bool net_value) {
  CHARLIE_ASSERT(net >= 0 &&
                 static_cast<std::size_t>(net) < net_value_.size());
  CHARLIE_ASSERT_MSG(t > horizon_,
                     "sim session: injected event at or before the horizon");
  injected_.push_back({t, net, net_value});
}

void SimSession::advance(double t_horizon) {
  // A terminated session stays terminated: callers driving windowed
  // schedules (sharded wavefront) may keep issuing advances, which must
  // not resurrect a tripped or failed run.
  if (status_ != RunStatus::kOk) return;
  CHARLIE_ASSERT(t_horizon >= horizon_);
  horizon_ = t_horizon;
  const util::RunCounters before = util::RunCounters::local();
  // The no-throw boundary: a failure anywhere in the run (solver
  // non-convergence, assertion, injected fault) ends the session with the
  // traces produced so far.
  try {
    run_window();
  } catch (const std::exception& e) {
    status_ = RunStatus::kFailed;
    error_ = e.what();
  }
  counters_ += util::RunCounters::local() - before;
}

void SimSession::run_window() {
  // One span per advance slice; the event count is filled in at the end so
  // windowed schedules (sharded wavefront) show per-window event volume.
  const long events_before = n_stimulus_events_ + n_gate_events_;
  obs::ScopedSpan obs_span("sim.advance", "events", 0);

  // Merge injected boundary transitions into the unprocessed stimulus tail.
  // Both ranges are time-sorted; inplace_merge is stable, so pre-known
  // stimuli precede injected events at equal times.
  if (!injected_.empty()) {
    std::stable_sort(injected_.begin(), injected_.end(),
                     [](const StimulusEvent& x, const StimulusEvent& y) {
                       return x.t < y.t;
                     });
    const std::size_t mid = stim_events_.size();
    stim_events_.insert(stim_events_.end(), injected_.begin(),
                        injected_.end());
    std::inplace_merge(stim_events_.begin() +
                           static_cast<std::ptrdiff_t>(stim_index_),
                       stim_events_.begin() + static_cast<std::ptrdiff_t>(mid),
                       stim_events_.end(),
                       [](const StimulusEvent& x, const StimulusEvent& y) {
                         return x.t < y.t;
                       });
    injected_.clear();
  }

  // Re-arm gates whose pending events were beyond the previous horizon.
  // reschedule() may defer them again (still beyond this horizon); swap
  // first so the re-appends land in a fresh list.
  if (!deferred_.empty()) {
    std::vector<std::size_t> rearm;
    rearm.swap(deferred_);
    for (const std::size_t gate_index : rearm) {
      is_deferred_[gate_index - gate_begin_] = 0;
    }
    for (const std::size_t gate_index : rearm) {
      reschedule(gate_index);
    }
  }

  // --- event loop ----------------------------------------------------------
  // Every heap entry satisfies t <= horizon_ by construction (reschedule
  // filters), so only the stimulus stream needs the horizon check.
  while ((stim_index_ < stim_events_.size() &&
          stim_events_[stim_index_].t <= horizon_) ||
         !heap_.empty()) {
    // Budget poll before taking the next event: a trip leaves exactly
    // n_events processed and the remaining events pending, so the partial
    // traces are a deterministic prefix of the full run.
    if (guard_active_) {
      const RunStatus st = guard_.check(n_stimulus_events_ + n_gate_events_);
      if (st != RunStatus::kOk) {
        status_ = st;
        obs_span.set_value0(n_stimulus_events_ + n_gate_events_ -
                            events_before);
        return;
      }
    }
    const bool take_stimulus =
        stim_index_ < stim_events_.size() &&
        stim_events_[stim_index_].t <= horizon_ &&
        (heap_.empty() || stim_events_[stim_index_].t <= heap_.top().t);
    if (take_stimulus) {
      const StimulusEvent& ev = stim_events_[stim_index_++];
      ++n_stimulus_events_;
      t_processed_ = ev.t;
      // Stimulus-stream nets are primary inputs or upstream ranges' nets:
      // only a whole-circuit session owns (records) them.
      propagate_net_change(ev.net, ev.t, ev.value, whole_);
      if (static_cast<long>(heap_.size()) > max_heap_depth_) {
        max_heap_depth_ = static_cast<long>(heap_.size());
      }
      continue;
    }
    const std::size_t gate_index = heap_.top_slot() + gate_begin_;
    const EventHeap::Entry fired = heap_.top();
    heap_.pop();
    ++n_gate_events_;
    t_processed_ = fired.t;
    Circuit::Gate& gate = circuit_->gates_[gate_index];
    const PendingEvent event{fired.t, fired.value};
    if (gate.sis) {
      gate.sis->on_fire(event);
    } else {
      gate.mis->on_fire(event);
    }
    reschedule(gate_index);
    propagate_net_change(gate.output, fired.t, fired.value, true);
    // Heap occupancy peaks right after an event's reschedules, before the
    // next pop -- one compare per event keeps the counter always-on cheap.
    if (static_cast<long>(heap_.size()) > max_heap_depth_) {
      max_heap_depth_ = static_cast<long>(heap_.size());
    }
  }
  obs_span.set_value0(n_stimulus_events_ + n_gate_events_ - events_before);
}

Circuit::SimResult SimSession::take_result() {
  const long n_events = n_stimulus_events_ + n_gate_events_;
  result_.n_events = n_events;
  result_.max_heap_depth = max_heap_depth_;
  result_.status = status_;
  result_.diagnostics =
      guard_.finish(status_, n_events,
                    status_ == RunStatus::kOk ? horizon_ : t_processed_,
                    counters_);
  result_.diagnostics.error = error_;
  return std::move(result_);
}

}  // namespace charlie::sim
