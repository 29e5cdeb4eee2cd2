#include "sim/sim_session.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <span>
#include <type_traits>

#include "obs/trace_recorder.hpp"
#include "util/error.hpp"

namespace charlie::sim {

SimSession::BlockLocks::BlockLocks(std::span<const std::size_t> cut)
    : cut_(cut.begin(), cut.end()) {
  CHARLIE_ASSERT(cut.size() >= 2);
  blocks_ = std::make_unique<Block[]>(cut.size() - 1);
}

SimSession::SimSession(Circuit& circuit, std::size_t gate_begin,
                       std::size_t gate_end, double t_begin,
                       std::vector<waveform::DigitalTrace>& traces,
                       Scratch& scratch, RunGuard& guard, BlockLocks& locks)
    : circuit_(&circuit), gate_begin_(gate_begin), gate_end_(gate_end),
      horizon_(t_begin), pulled_to_(t_begin), guard_(&guard),
      guard_active_(guard.enabled()), t_processed_(t_begin),
      traces_(&traces), s_(&scratch), locks_(&locks) {
  CHARLIE_ASSERT_MSG(gate_begin <= gate_end && gate_end <= circuit.n_gates(),
                     "sim session: gate range out of bounds");
  CHARLIE_ASSERT(traces.size() == circuit.n_nets());
  // The block starting at gate_begin, if any: a bound before the last.
  const std::vector<std::size_t>& cut = locks.cut_;
  const auto first = std::lower_bound(cut.begin(), cut.end() - 1, gate_begin);
  CHARLIE_ASSERT_MSG(first != cut.end() - 1 && *first == gate_begin &&
                         first[1] == gate_end,
                     "sim session: range is not a block of its locks");
  own_block_ = &locks.blocks_[static_cast<std::size_t>(first - cut.begin())];
  circuit.finish_fanout();
  // Guard sites bump the executing thread's counters: each call adds its
  // own increments, on whichever thread runs it.
  const util::RunCounters before = util::RunCounters::local();
  collect_external_nets();
  collect_upstream_blocks();
  Circuit& c = circuit;
  Scratch& s = scratch;
  const std::size_t n_own = gate_end - gate_begin;

  // --- steady state --------------------------------------------------------
  // Window convention (see circuit.hpp): the settled values already include
  // a transition at exactly t_begin; only strictly later transitions become
  // events. Each gate's state comes from the settled values of its nets,
  // which are their traces' initial values.
  auto settled = [&](Circuit::NetId net) {
    return traces[static_cast<std::size_t>(net)].initial_value();
  };
  s.net_value.resize(n_own + s.external.size());
  for (std::size_t g = gate_begin; g < gate_end; ++g) {
    Circuit::Gate& gate = c.gates_[g];
    std::array<bool, kMaxGateArity> in_values{};
    const std::span<const Circuit::NetId> inputs = c.gate_inputs(g);
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      in_values[p] = settled(inputs[p]);
    }
    const bool out = settled(gate.output);
    s.net_value[g - gate_begin] = out ? 1 : 0;
    gate.in_values = in_values;
    gate.zero_time_value = out;
    c.visit_channel(gate, [&](auto& channel) {
      using Channel = std::decay_t<decltype(channel)>;
      if constexpr (std::is_base_of_v<SisChannel, Channel>) {
        channel.initialize(t_begin, out);
      } else {
        channel.initialize(t_begin, std::span<const bool>(in_values.data(),
                                                          gate.arity));
      }
    });
  }
  // The external nets' transitions arrive through pull().
  for (std::size_t k = 0; k < s.external.size(); ++k) {
    s.net_value[n_own + k] = settled(s.external[k].net) ? 1 : 0;
  }
  s.stream.clear();
  s.log.clear();
  s.log.reserve(kTransitionLogCapacity);
  s.heap.reset(n_own);
  counters_ += util::RunCounters::local() - before;
}

void SimSession::run_blocks(Circuit& circuit,
                            const std::vector<waveform::DigitalTrace>& stimuli,
                            double t_begin, double t_end,
                            const RunBudget& budget,
                            Circuit::SimResult& result, Scratch& scratch) {
  // One guard for the whole run: its clock starts here, and its event
  // count runs on from block to block.
  RunGuard guard(budget);
  circuit.prepare_run(stimuli, t_begin, t_end, result);
  circuit.finish_fanout();
  const std::vector<std::size_t>& cut = circuit.blocks_;
  BlockLocks locks(cut);
  for (std::size_t b = 0; b + 1 < cut.size(); ++b) {
    SimSession session(circuit, cut[b], cut[b + 1], t_begin, result.traces,
                       scratch, guard, locks);
    session.pull(t_end);
    session.advance(t_end);
    session.add_to(result);
    if (session.status() != RunStatus::kOk) {
      // The later blocks never ran: their traces hold t_begin's values.
      if (b + 2 < cut.size()) result.diagnostics.t_horizon = t_begin;
      return;
    }
    guard.carry(session.n_events());
  }
}

void SimSession::collect_external_nets() {
  const Circuit& c = *circuit_;
  Scratch& s = *s_;
  std::vector<ExternalNet>& external = s.external;
  // The nets the range reads from outside, in producer order: primary
  // inputs first, then upstream gates. The session over the first gates
  // takes every primary input, read or not: it counts them all.
  external.clear();
  if (gate_begin_ == 0) {
    external.reserve(c.n_inputs());
    for (const Circuit::NetId net : c.primary_inputs_) {
      external.push_back({net, 0, 0});
    }
  } else {
    // Mark the upstream producers the range reads; reading the marks in
    // order lists their nets by producer, each once.
    const std::size_t first_own = c.n_inputs() + gate_begin_;
    std::vector<std::uint64_t> read((first_own + 63) / 64, 0);
    for (std::size_t g = gate_begin_; g < gate_end_; ++g) {
      for (const Circuit::NetId net : c.gate_inputs(g)) {
        const std::uint32_t p = c.producer(net);
        if (p < first_own) read[p / 64] |= std::uint64_t{1} << (p % 64);
      }
    }
    for (std::size_t w = 0; w < read.size(); ++w) {
      for (std::uint64_t bits = read[w]; bits != 0; bits &= bits - 1) {
        const std::size_t p =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const Circuit::NetId net =
            p < c.n_inputs() ? c.primary_inputs_[p]
                             : c.gates_[p - c.n_inputs()].output;
        external.push_back({net, 0, 0});
      }
    }
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
  for (std::size_t k = 0; k < external.size(); ++k) {
    const std::span<const Circuit::Fanout> readers =
        c.fanout(static_cast<std::size_t>(external[k].net));
    const std::ptrdiff_t offset = readers.data() - base;
    external[k].fanout_begin = static_cast<std::uint32_t>(
        offset + (first_at_or_after(readers, gate_begin_) - readers.begin()));
    external[k].fanout_end = static_cast<std::uint32_t>(
        offset + (first_at_or_after(readers, gate_end_) - readers.begin()));
  }
}

void SimSession::collect_upstream_blocks() {
  const Circuit& c = *circuit_;
  Scratch& s = *s_;
  // The external nets are in producer order: the primary inputs, whose
  // traces are complete already, then the upstream gates' nets. Blocks are
  // contiguous producer ranges, so one walk along the cut groups the
  // latter by the block driving them.
  s.upstream.clear();
  const std::vector<std::size_t>& cut = locks_->cut_;
  std::size_t b = 0;
  for (std::size_t k = 0; k < s.external.size(); ++k) {
    const std::uint32_t p = c.producer(s.external[k].net);
    if (p < c.n_inputs()) continue;
    const std::size_t gate = p - c.n_inputs();
    if (s.upstream.empty() || gate >= cut[b + 1]) {
      while (gate >= cut[b + 1]) ++b;
      s.upstream.push_back({static_cast<std::uint32_t>(k),
                            static_cast<std::uint32_t>(k),
                            static_cast<std::uint32_t>(b)});
    }
    ++s.upstream.back().end;
  }
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
  if (s_->log.empty()) return;
  // Downstream sessions read these traces, and the block's append count,
  // under the block's lock in shared mode.
  const std::unique_lock<std::shared_mutex> lock(own_block_->mutex);
  own_block_->appended += s_->log.size();
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

void SimSession::pull(double t_horizon) {
  if (status_ != RunStatus::kOk) return;
  Scratch& s = *s_;
  CHARLIE_ASSERT_MSG(stream_index_ == s.stream.size(),
                     "sim session: pull before the last pull was processed");
  s.stream.clear();
  s.runs.assign(1, 0);
  stream_index_ = 0;
  pulled_to_ = std::max(pulled_to_, t_horizon);
  // Appends each of external nets [begin, end)'s new transitions up to
  // t_horizon to the stream as one run; true if it leaves none of them
  // unqueued. The nets are in producer order, so the runs are too. What
  // the loop reads per net is held in the closure and in locals: through
  // the members, every append to the stream would make the compiler load
  // it again.
  const auto queue = [&s, traces = traces_->data(), horizon = horizon_,
                      t_horizon](std::uint32_t begin, std::uint32_t end) {
    bool drained = true;
    ExternalNet* const external = s.external.data();
    for (std::uint32_t k = begin; k < end; ++k) {
      ExternalNet& ext = external[k];
      const waveform::DigitalTrace& trace =
          traces[static_cast<std::size_t>(ext.net)];
      const double* const times = trace.transitions().data();
      const std::size_t n = trace.n_transitions();
      std::size_t q = ext.queued;
      if (q == n) continue;
      // A trace's times strictly increase: its first new one is its earliest.
      CHARLIE_ASSERT_MSG(times[q] > horizon,
                         "sim session: pulled transition at or before the "
                         "horizon");
      if (times[q] > t_horizon) {
        drained = false;
        continue;
      }
      bool value = trace.is_rising(q);
      do {
        s.stream.push_back({times[q], k, value});
        value = !value;
      } while (++q < n && times[q] <= t_horizon);
      ext.queued = q;
      s.runs.push_back(s.stream.size());
      drained = drained && q == n;
    }
    return drained;
  };
  // The primary inputs come first in producer order. Their traces do not
  // change during a run.
  queue(0, s.upstream.empty() ? static_cast<std::uint32_t>(s.external.size())
                              : s.upstream.front().begin);
  const std::size_t from_inputs = s.stream.size();
  // Each upstream net's new transitions are copied out while its block's
  // lock is held (that block's session may be appending). A block that has
  // appended nothing since a pull left none of its nets' transitions
  // unqueued is passed over without reading its nets' traces.
  for (UpstreamBlock& group : s.upstream) {
    BlockLocks::Block& block = locks_->blocks_[group.block];
    const std::shared_lock<std::shared_mutex> lock(block.mutex);
    if (group.drained && block.appended == group.appended) continue;
    group.appended = block.appended;
    group.drained = queue(group.begin, group.end);
  }
  n_pulled_ += static_cast<long>(s.stream.size() - from_inputs);
  waveform::merge_transitions(s.stream, s.runs, s.spare);
}

void SimSession::advance(double t_horizon) {
  // A terminated session stays terminated: callers driving windowed
  // schedules (sharded wavefront) may keep issuing advances, which must
  // not resurrect a tripped or failed run.
  if (status_ != RunStatus::kOk) return;
  CHARLIE_ASSERT(t_horizon >= horizon_);
  CHARLIE_ASSERT_MSG(t_horizon <= pulled_to_,
                     "sim session: advance past the pulled horizon");
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
  // Equal times go in producer order (see the header): the stream, in (t,
  // external index) order, before the range's own gates, and those by (t,
  // slot).
  while (true) {
    const bool stream_due = stream_index_ < s.stream.size() &&
                            s.stream[stream_index_].t <= horizon_;
    const bool heap_due = !heap.empty() && heap.top().t <= horizon_;
    if (!stream_due && !heap_due) break;
    const bool from_stream =
        stream_due && (!heap_due || s.stream[stream_index_].t <= heap.top().t);
    // Budget poll before the next event the run counts (see the header): a
    // trip leaves exactly the run's max_events processed and the remaining
    // events pending, so the partial traces are a deterministic prefix of
    // the full run.
    if (guard_active_ && (!from_stream || gate_begin_ == 0)) {
      const RunStatus st = guard_->check(n_events());
      if (st != RunStatus::kOk) {
        status_ = st;
        obs_span.set_value0(n_stimulus_events_ + n_gate_events_ -
                            events_before);
        return;
      }
    }
    if (from_stream) {
      const StreamEvent ev = s.stream[stream_index_++];
      ++n_stimulus_events_;
      if (ev.t == t_processed_) ++equal_time_ties_;
      t_processed_ = ev.t;
      const ExternalNet& ext = s.external[ev.source];
      std::uint8_t& value = s.net_value[n_own + ev.source];
      if ((value != 0) != ev.value) {  // defensive: transitions alternate
        value = ev.value ? 1 : 0;
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

void SimSession::add_to(Circuit::SimResult& run) const {
  run.n_events += n_events();
  run.max_heap_depth = std::max(run.max_heap_depth, max_heap_depth_);
  run.equal_time_ties += equal_time_ties_;
  RunDiagnostics& d = run.diagnostics;
  d.counters += counters_;
  d.t_horizon = std::min(
      d.t_horizon, status_ == RunStatus::kOk ? horizon_ : t_processed_);
  if (status_ == RunStatus::kFailed && run.status != RunStatus::kFailed) {
    run.status = RunStatus::kFailed;
    d.error = error_;
  } else if (run.status == RunStatus::kOk) {
    run.status = status_;
  }
  d.status = run.status;
  d.n_events = run.n_events;
}

}  // namespace charlie::sim
