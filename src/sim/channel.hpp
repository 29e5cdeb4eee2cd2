// Channel interfaces for digital timing simulation.
//
// Following the Involution Delay Model (IDM) architecture, circuits are
// zero-time boolean gates connected through delay channels. A channel
// receives input transitions and produces delayed output transitions, with
// single-history cancellation semantics: a pending output event can be
// withdrawn by a later input transition (glitch annihilation).
//
// Contract: at any moment a channel has at most ONE pending future output
// event, exposed through pending(). The simulator delivers input
// transitions via on_input and, once simulated time passes the pending
// event, fires it via on_fire -- after which pending() may expose a
// follow-up event (channels whose internal waveform crosses the threshold
// more than once per mode need this).
//
// sim::Circuit stores the three channel kinds sim::CircuitBuilder emits
// (HybridGateChannel, InertialChannel, WireChannel) by value in per-kind
// arrays and calls them through their final types, so the event loop
// makes no virtual call for them; any other channel passed to
// Circuit::add_gate/add_mis_gate stays boxed behind these interfaces.
#pragma once

#include <optional>
#include <span>

namespace charlie::sim {

struct PendingEvent {
  double t = 0.0;
  bool value = false;
};

/// Single-input channel processing an alternating boolean signal.
class SisChannel {
 public:
  virtual ~SisChannel() = default;

  /// Reset to a steady state consistent with input `value` at time t0.
  virtual void initialize(double t0, bool value) = 0;

  /// Input changed to `value` at time `t`. May create, move, or cancel the
  /// pending event.
  virtual void on_input(double t, bool value) = 0;

  /// The pending event fired (simulated time reached it).
  virtual void on_fire(const PendingEvent& fired) = 0;

  /// The channel's next output event, if any.
  virtual std::optional<PendingEvent> pending() const = 0;

  /// Output value in the initialized steady state.
  virtual bool initial_output() const = 0;
};

/// Multi-input gate channel (e.g. the MIS-aware hybrid NOR channel).
class GateChannel {
 public:
  virtual ~GateChannel() = default;
  virtual int n_inputs() const = 0;

  /// Reset to a steady state for the given input values at t0.
  virtual void initialize(double t0, std::span<const bool> values) = 0;

  virtual void on_input(double t, int port, bool value) = 0;
  virtual void on_fire(const PendingEvent& fired) = 0;
  virtual std::optional<PendingEvent> pending() const = 0;
  virtual bool initial_output() const = 0;
};

}  // namespace charlie::sim
