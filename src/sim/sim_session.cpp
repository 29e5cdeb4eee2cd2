#include "sim/sim_session.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

#include "obs/trace_recorder.hpp"
#include "util/error.hpp"

namespace charlie::sim {

namespace {

template <typename Event>
bool stream_before(const Event& a, const Event& b) {
  if (a.t != b.t) return a.t < b.t;
  return a.ext < b.ext;
}

}  // namespace

SimSession::SimSession(Circuit& circuit, std::size_t gate_begin,
                       std::size_t gate_end, double t_begin,
                       const RunBudget& budget, Circuit::SimResult&& arena,
                       std::vector<waveform::DigitalTrace>* traces,
                       Scratch* scratch)
    : circuit_(&circuit), gate_begin_(gate_begin), gate_end_(gate_end),
      whole_(gate_begin == 0 && gate_end == circuit.n_gates()),
      t_begin_(t_begin), horizon_(t_begin), guard_(budget),
      guard_active_(budget.enabled()), t_processed_(t_begin),
      result_(std::move(arena)),
      traces_(traces != nullptr ? traces : &result_.traces),
      s_(scratch != nullptr ? scratch : &own_scratch_) {
  CHARLIE_ASSERT_MSG(gate_begin <= gate_end && gate_end <= circuit.n_gates(),
                     "sim session: gate range out of bounds");
  circuit.finish_fanout();
}

SimSession::SimSession(Circuit& circuit, std::size_t gate_begin,
                       std::size_t gate_end,
                       const std::vector<waveform::DigitalTrace>& stimuli,
                       double t_begin, const RunBudget& budget,
                       Circuit::SimResult&& arena, Scratch* scratch)
    : SimSession(circuit, gate_begin, gate_end, t_begin, budget,
                 std::move(arena), nullptr, scratch) {
  std::vector<std::uint8_t>& settled = s_->settled;
  circuit.settle(stimuli, t_begin, gate_end, settled);
  // One trace per net, reset in place (keeping its capacity) to the net's
  // settled value; a larger previous circuit's extra traces are dropped.
  // Nothing is reserved per net: activity differs by orders of magnitude
  // across nets, so any stimulus-derived guess over-reserves most of them.
  const std::size_t n_nets = circuit.n_nets();
  std::vector<waveform::DigitalTrace>& traces = result_.traces;
  if (traces.size() > n_nets) traces.resize(n_nets);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    traces[i].reset(settled[i] != 0);
  }
  traces.reserve(n_nets);
  for (std::size_t i = traces.size(); i < n_nets; ++i) {
    traces.emplace_back(settled[i] != 0, std::vector<double>{});
  }
  initialize(stimuli, settled);
}

SimSession::SimSession(Circuit& circuit, std::size_t gate_begin,
                       std::size_t gate_end,
                       const std::vector<waveform::DigitalTrace>& stimuli,
                       double t_begin, std::span<const std::uint8_t> settled,
                       std::vector<waveform::DigitalTrace>& traces,
                       Scratch& scratch, const RunBudget& budget)
    : SimSession(circuit, gate_begin, gate_end, t_begin, budget,
                 Circuit::SimResult{}, &traces, &scratch) {
  CHARLIE_ASSERT(settled.size() == circuit.n_nets() &&
                 traces.size() == circuit.n_nets());
  initialize(stimuli, settled);
}

void SimSession::collect_external_nets() {
  const Circuit& c = *circuit_;
  Scratch& s = *s_;
  std::vector<ExternalNet>& external = s.external;
  // The nets the range reads from outside, in producer order: primary
  // inputs first, then upstream gates. A whole-circuit session takes every
  // primary input, read or not.
  external.clear();
  if (whole_) {
    external.reserve(c.n_inputs());
    for (const Circuit::NetId net : c.primary_inputs_) {
      external.push_back({net, 0, 0});
    }
  } else {
    const std::size_t first_own = c.n_inputs() + gate_begin_;
    for (std::size_t g = gate_begin_; g < gate_end_; ++g) {
      for (const Circuit::NetId net : c.gate_inputs(g)) {
        if (c.producer(net) < first_own) external.push_back({net, 0, 0});
      }
    }
    std::sort(external.begin(), external.end(),
              [&](const ExternalNet& a, const ExternalNet& b) {
                return c.producer(a.net) < c.producer(b.net);
              });
    external.erase(std::unique(external.begin(), external.end(),
                               [](const ExternalNet& a, const ExternalNet& b) {
                                 return a.net == b.net;
                               }),
                   external.end());
  }
  // Each net's in-range readers: its list is in gate order, so they are
  // one contiguous run of it.
  const Circuit::Fanout* const base = c.fanout_.data();
  auto first_at_or_after = [](std::span<const Circuit::Fanout> readers,
                              std::size_t gate) {
    return std::lower_bound(readers.begin(), readers.end(), gate,
                            [](const Circuit::Fanout& entry, std::size_t g) {
                              return entry.gate < g;
                            });
  };
  s.external_by_net.clear();
  s.external_by_net.reserve(external.size());
  for (std::size_t k = 0; k < external.size(); ++k) {
    const std::span<const Circuit::Fanout> readers =
        c.fanout(static_cast<std::size_t>(external[k].net));
    const std::ptrdiff_t offset = readers.data() - base;
    external[k].fanout_begin = static_cast<std::uint32_t>(
        offset + (first_at_or_after(readers, gate_begin_) - readers.begin()));
    external[k].fanout_end = static_cast<std::uint32_t>(
        offset + (first_at_or_after(readers, gate_end_) - readers.begin()));
    s.external_by_net.emplace_back(external[k].net,
                                   static_cast<std::uint32_t>(k));
  }
  std::sort(s.external_by_net.begin(), s.external_by_net.end());
}

void SimSession::initialize(
    const std::vector<waveform::DigitalTrace>& stimuli,
    std::span<const std::uint8_t> settled) {
  Circuit& c = *circuit_;
  Scratch& s = *s_;
  CHARLIE_ASSERT_MSG(stimuli.size() == c.primary_inputs_.size(),
                     "circuit: one stimulus trace per primary input");
  // Guard sites bump the executing thread's counters: each call adds its
  // own increments, on whichever thread runs it.
  const util::RunCounters before = util::RunCounters::local();
  collect_external_nets();
  const std::size_t n_own = gate_end_ - gate_begin_;
  std::vector<waveform::DigitalTrace>& traces = *traces_;

  // --- steady state --------------------------------------------------------
  // Window convention (see circuit.hpp): the settled values already include
  // a transition at exactly t_begin; only strictly later transitions become
  // events. Each gate's state comes from the settled values of its nets,
  // and so does the initial value of every trace the session records.
  s.net_value.resize(n_own + s.external.size());
  for (std::size_t g = gate_begin_; g < gate_end_; ++g) {
    Circuit::Gate& gate = c.gates_[g];
    std::array<bool, kMaxGateArity> in_values{};
    const std::span<const Circuit::NetId> inputs = c.gate_inputs(g);
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      in_values[p] = settled[static_cast<std::size_t>(inputs[p])] != 0;
    }
    const bool out = settled[static_cast<std::size_t>(gate.output)] != 0;
    s.net_value[g - gate_begin_] = out ? 1 : 0;
    traces[static_cast<std::size_t>(gate.output)].reset(out);
    gate.in_values = in_values;
    gate.zero_time_value = out;
    c.visit_channel(gate, [&](auto& channel) {
      using Channel = std::decay_t<decltype(channel)>;
      if constexpr (std::is_base_of_v<SisChannel, Channel>) {
        channel.initialize(t_begin_, out);
      } else {
        channel.initialize(
            t_begin_, std::vector<bool>(in_values.begin(),
                                        in_values.begin() + gate.arity));
      }
    });
  }
  for (std::size_t k = 0; k < s.external.size(); ++k) {
    const auto net = static_cast<std::size_t>(s.external[k].net);
    s.net_value[n_own + k] = settled[net];
    if (whole_) traces[net].reset(settled[net] != 0);
  }

  // --- stimulus stream -----------------------------------------------------
  // All primary-input events are known up front: one sorted vector walked
  // by an index beats pushing them through the gate heap. The external nets
  // are in producer order with the primary inputs first, so sorting by
  // (t, external index) puts equal times in input-declaration order.
  // Transitions beyond the final horizon simply never get processed.
  s.stream.clear();
  for (std::size_t k = 0; k < s.external.size(); ++k) {
    const std::uint32_t p = c.producer(s.external[k].net);
    if (p >= stimuli.size()) break;  // upstream gates' nets follow
    const waveform::DigitalTrace& trace = stimuli[p];
    for (std::size_t i = 0; i < trace.n_transitions(); ++i) {
      const double t = trace.transitions()[i];
      if (t <= t_begin_) continue;
      s.stream.push_back(
          {t, static_cast<std::uint32_t>(k), trace.is_rising(i)});
    }
  }
  std::sort(s.stream.begin(), s.stream.end(),
            [](const StreamEvent& a, const StreamEvent& b) {
              return stream_before(a, b);
            });
  s.injected.clear();
  s.incoming.clear();
  stream_index_ = 0;
  injected_index_ = 0;
  s.log.clear();
  s.log.reserve(kTransitionLogCapacity);
  s.heap.reset(n_own);
  counters_ += util::RunCounters::local() - before;
}

void SimSession::reschedule(std::size_t slot,
                            const std::optional<PendingEvent>& pending) {
  // A firing beyond the current horizon stays in the heap: the loop stops
  // at the horizon, and the next advance() picks it up where it is.
  if (pending.has_value()) {
    s_->heap.schedule(slot, pending->t, pending->value);
  } else {
    s_->heap.cancel(slot);
  }
}

void SimSession::deliver(const Circuit::Fanout* reader,
                         const Circuit::Fanout* end, double t, bool value) {
  Circuit& c = *circuit_;
  for (; reader != end && reader->gate < gate_end_; ++reader) {
    Circuit::Gate& gate = c.gates_[reader->gate];
    gate.in_values[reader->port] = value;
    const std::optional<PendingEvent> pending =
        c.visit_channel(gate, [&](auto& channel) {
          using Channel = std::decay_t<decltype(channel)>;
          if constexpr (std::is_base_of_v<SisChannel, Channel>) {
            const bool nv = eval_gate(gate.kind, gate.in_values[0],
                                      gate.in_values[1], gate.in_values[2]);
            if (nv != gate.zero_time_value) {
              gate.zero_time_value = nv;
              channel.on_input(t, nv);
            }
          } else {
            channel.on_input(t, static_cast<int>(reader->port), value);
          }
          return channel.pending();
        });
    reschedule(reader->gate - gate_begin_, pending);
  }
}

void SimSession::flush_log() {
  // The log empties on every exit, also when an append throws.
  struct Clear {
    std::vector<LoggedTransition>& log;
    ~Clear() { log.clear(); }
  } clear{s_->log};
  std::vector<waveform::DigitalTrace>& traces = *traces_;
  for (const LoggedTransition& entry : s_->log) {
    traces[static_cast<std::size_t>(entry.net)].append_transition(entry.t);
  }
}

void SimSession::fail(const std::exception& e) {
  if (status_ == RunStatus::kFailed) return;  // the first failure reports
  status_ = RunStatus::kFailed;
  error_ = e.what();
}

void SimSession::inject(Circuit::NetId net, double t, bool net_value) {
  CHARLIE_ASSERT_MSG(t > horizon_,
                     "sim session: injected event at or before the horizon");
  const auto& index = s_->external_by_net;
  const auto it = std::lower_bound(
      index.begin(), index.end(), net,
      [](const std::pair<Circuit::NetId, std::uint32_t>& entry,
         Circuit::NetId n) { return entry.first < n; });
  CHARLIE_ASSERT_MSG(it != index.end() && it->first == net &&
                         circuit_->producer(net) >= circuit_->n_inputs(),
                     "sim session: injected net is not an upstream net the "
                     "range reads");
  s_->incoming.push_back({t, it->second, net_value});
}

void SimSession::merge_injected() {
  Scratch& s = *s_;
  if (s.incoming.empty()) return;
  // What is left of the merged stream lies beyond the previous horizon;
  // the new transitions join it in (t, producer) order.
  s.injected.erase(s.injected.begin(),
                   s.injected.begin() +
                       static_cast<std::ptrdiff_t>(injected_index_));
  injected_index_ = 0;
  auto by_key = [](const StreamEvent& a, const StreamEvent& b) {
    return stream_before(a, b);
  };
  std::stable_sort(s.incoming.begin(), s.incoming.end(), by_key);
  const std::size_t mid = s.injected.size();
  s.injected.insert(s.injected.end(), s.incoming.begin(), s.incoming.end());
  std::inplace_merge(s.injected.begin(),
                     s.injected.begin() + static_cast<std::ptrdiff_t>(mid),
                     s.injected.end(), by_key);
  s.incoming.clear();
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
  // traces produced so far -- the logged transitions move into them on
  // every exit.
  try {
    run_window();
  } catch (const std::exception& e) {
    fail(e);
  }
  try {
    flush_log();
  } catch (const std::exception& e) {
    fail(e);
  }
  counters_ += util::RunCounters::local() - before;
}

void SimSession::run_window() {
  // One span per advance slice; the event count is filled in at the end so
  // windowed schedules (sharded wavefront) show per-window event volume.
  const long events_before = n_stimulus_events_ + n_gate_events_;
  obs::ScopedSpan obs_span("sim.advance", "events", 0);
  merge_injected();

  Circuit& c = *circuit_;
  Scratch& s = *s_;
  EventHeap& heap = s.heap;
  const std::size_t n_own = gate_end_ - gate_begin_;
  const Circuit::Fanout* const fanout = c.fanout_.data();
  auto record = [&](double t, Circuit::NetId net) {
    s.log.push_back({t, net});
    if (s.log.size() == kTransitionLogCapacity) flush_log();
  };

  // --- event loop ----------------------------------------------------------
  // Equal times go in producer order (see the header): the stream's
  // primary-input and injected heads by (t, external index), the stream
  // before the range's own gates, and those by (t, slot).
  while (true) {
    const StreamEvent* next = nullptr;
    bool injected = false;
    if (stream_index_ < s.stream.size()) next = &s.stream[stream_index_];
    if (injected_index_ < s.injected.size()) {
      const StreamEvent& head = s.injected[injected_index_];
      if (next == nullptr || stream_before(head, *next)) {
        next = &head;
        injected = true;
      }
    }
    const bool stream_due = next != nullptr && next->t <= horizon_;
    const bool heap_due = !heap.empty() && heap.top().t <= horizon_;
    if (!stream_due && !heap_due) break;
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
    if (stream_due && (!heap_due || next->t <= heap.top().t)) {
      const StreamEvent ev = *next;
      if (injected) {
        ++injected_index_;
      } else {
        ++stream_index_;
      }
      ++n_stimulus_events_;
      if (ev.t == t_processed_) ++equal_time_ties_;
      t_processed_ = ev.t;
      const ExternalNet& ext = s.external[ev.ext];
      std::uint8_t& value = s.net_value[n_own + ev.ext];
      if ((value != 0) != ev.value) {  // defensive: transitions alternate
        value = ev.value ? 1 : 0;
        // Stream nets are primary inputs or upstream ranges' nets: only a
        // whole-circuit session records them.
        if (whole_) record(ev.t, ext.net);
        deliver(fanout + ext.fanout_begin, fanout + ext.fanout_end, ev.t,
                ev.value);
      }
    } else {
      const EventHeap::Entry fired = heap.top();
      heap.pop();
      ++n_gate_events_;
      if (fired.t == t_processed_) ++equal_time_ties_;
      t_processed_ = fired.t;
      Circuit::Gate& gate = c.gates_[gate_begin_ + fired.slot];
      const PendingEvent event{fired.t, fired.value};
      reschedule(fired.slot, c.visit_channel(gate, [&](auto& channel) {
        channel.on_fire(event);
        return channel.pending();
      }));
      std::uint8_t& value = s.net_value[fired.slot];
      if ((value != 0) != fired.value) {
        value = fired.value ? 1 : 0;
        record(fired.t, gate.output);
        // An own net's readers follow its driver in construction order, so
        // they start inside the range.
        const std::span<const Circuit::Fanout> readers =
            c.fanout(static_cast<std::size_t>(gate.output));
        deliver(readers.data(), readers.data() + readers.size(), fired.t,
                fired.value);
      }
    }
    // Heap occupancy peaks right after an event's reschedules, before the
    // next pop -- one compare per event keeps the counter always-on cheap.
    if (static_cast<long>(heap.size()) > max_heap_depth_) {
      max_heap_depth_ = static_cast<long>(heap.size());
    }
  }
  obs_span.set_value0(n_stimulus_events_ + n_gate_events_ - events_before);
}

Circuit::SimResult SimSession::take_result() {
  const long n_events = n_stimulus_events_ + n_gate_events_;
  result_.n_events = n_events;
  result_.max_heap_depth = max_heap_depth_;
  result_.equal_time_ties = equal_time_ties_;
  result_.status = status_;
  result_.diagnostics =
      guard_.finish(status_, n_events,
                    status_ == RunStatus::kOk ? horizon_ : t_processed_,
                    counters_);
  result_.diagnostics.error = error_;
  return std::move(result_);
}

}  // namespace charlie::sim
