#include "sim/run_channel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "core/gate_params.hpp"
#include "util/error.hpp"

namespace charlie::sim {

namespace {

struct InputEvent {
  double t;
  int port;
  bool value;
};

// Shared implementation over trace pointers, so the two-input convenience
// overload never copies its (potentially long) traces.
waveform::DigitalTrace run_gate_channel_impl(
    GateChannel& channel,
    std::span<const waveform::DigitalTrace* const> inputs, double t_begin,
    double t_end) {
  CHARLIE_ASSERT(t_end > t_begin);
  CHARLIE_ASSERT(channel.n_inputs() == static_cast<int>(inputs.size()));

  // Merge the input traces into one chronological event list.
  std::size_t total = 0;
  for (const auto* trace : inputs) total += trace->n_transitions();
  std::vector<InputEvent> events;
  events.reserve(total);
  for (std::size_t port = 0; port < inputs.size(); ++port) {
    const auto& trace = *inputs[port];
    for (std::size_t i = 0; i < trace.n_transitions(); ++i) {
      const double t = trace.transitions()[i];
      if (t > t_begin && t < t_end) {
        events.push_back({t, static_cast<int>(port), trace.is_rising(i)});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const InputEvent& x, const InputEvent& y) {
                     return x.t < y.t;
                   });

  std::array<bool, core::kMaxGateInputs> initial{};
  CHARLIE_ASSERT(inputs.size() <= initial.size());
  for (std::size_t port = 0; port < inputs.size(); ++port) {
    initial[port] = inputs[port]->value_at(t_begin);
  }
  channel.initialize(t_begin, std::span(initial).first(inputs.size()));
  waveform::DigitalTrace out(channel.initial_output(), {});
  bool out_value = channel.initial_output();
  double out_last_t = t_begin;

  auto fire = [&](const PendingEvent& ev) {
    channel.on_fire(ev);
    if (ev.t >= t_end) return;
    // Defensive: channels guarantee alternation, but numerical crossings
    // could in principle repeat a value; keep the trace well-formed.
    if (ev.value == out_value) return;
    const double t = std::max(ev.t, std::nextafter(out_last_t, 1e300));
    out.append_transition(t);
    out_value = ev.value;
    out_last_t = t;
  };

  for (const InputEvent& in : events) {
    // Fire everything scheduled before this input takes effect.
    while (true) {
      const auto pending = channel.pending();
      if (!pending.has_value() || pending->t > in.t) break;
      fire(*pending);
    }
    channel.on_input(in.t, in.port, in.value);
  }
  // Drain remaining output events up to t_end.
  while (true) {
    const auto pending = channel.pending();
    if (!pending.has_value() || pending->t >= t_end) break;
    fire(*pending);
  }
  return out;
}

}  // namespace

waveform::DigitalTrace run_gate_channel(
    GateChannel& channel, std::span<const waveform::DigitalTrace> inputs,
    double t_begin, double t_end) {
  std::vector<const waveform::DigitalTrace*> refs;
  refs.reserve(inputs.size());
  for (const auto& trace : inputs) refs.push_back(&trace);
  return run_gate_channel_impl(channel, refs, t_begin, t_end);
}

waveform::DigitalTrace run_gate_channel(GateChannel& channel,
                                        const waveform::DigitalTrace& a,
                                        const waveform::DigitalTrace& b,
                                        double t_begin, double t_end) {
  const waveform::DigitalTrace* traces[] = {&a, &b};
  return run_gate_channel_impl(channel, traces, t_begin, t_end);
}

waveform::DigitalTrace run_sis_channel(SisChannel& channel,
                                       const waveform::DigitalTrace& input,
                                       double t_begin, double t_end) {
  CHARLIE_ASSERT(t_end > t_begin);
  channel.initialize(t_begin, input.value_at(t_begin));
  waveform::DigitalTrace out(channel.initial_output(), {});
  bool out_value = channel.initial_output();
  double out_last_t = t_begin;

  auto fire = [&](const PendingEvent& ev) {
    channel.on_fire(ev);
    if (ev.t >= t_end) return;
    if (ev.value == out_value) return;  // defensive, as in the gate harness
    const double t = std::max(ev.t, std::nextafter(out_last_t, 1e300));
    out.append_transition(t);
    out_value = ev.value;
    out_last_t = t;
  };

  for (std::size_t i = 0; i < input.n_transitions(); ++i) {
    const double t = input.transitions()[i];
    if (t <= t_begin || t >= t_end) continue;
    while (true) {
      const auto pending = channel.pending();
      if (!pending.has_value() || pending->t > t) break;
      fire(*pending);
    }
    channel.on_input(t, input.is_rising(i));
  }
  while (true) {
    const auto pending = channel.pending();
    if (!pending.has_value() || pending->t >= t_end) break;
    fire(*pending);
  }
  return out;
}

}  // namespace charlie::sim
