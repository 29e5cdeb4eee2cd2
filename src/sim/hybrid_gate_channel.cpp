#include "sim/hybrid_gate_channel.hpp"

#include <cmath>

#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace charlie::sim {

HybridGateChannel::HybridGateChannel(const core::GateParams& params)
    : HybridGateChannel(core::GateModeTables::make(params)) {}

HybridGateChannel::HybridGateChannel(
    std::shared_ptr<const core::GateModeTables> tables)
    : wave_(std::move(tables)) {}

void HybridGateChannel::rebind_tables(
    std::shared_ptr<const core::GateModeTables> tables) {
  CHARLIE_ASSERT(tables != nullptr);
  CHARLIE_ASSERT_MSG(tables->n_inputs() == n_inputs(),
                     "rebind_tables: arity mismatch");
  wave_.rebind(std::move(tables));
}

void HybridGateChannel::initialize(double t0, std::span<const bool> values) {
  const core::GateModeTables& tables = wave_.tables();
  const int n = n_inputs();
  CHARLIE_ASSERT(values.size() == static_cast<std::size_t>(n));
  core::GateState state = 0;
  for (int i = 0; i < n; ++i) {
    state = core::gate_state_with(state, i, values[i]);
  }
  // Steady state; an isolated internal stack node defaults to the
  // worst-case history value (GND for NOR-like, VDD for NAND-like).
  ode::Vec2 x0 = tables.state_table(state).steady;
  if (core::gate_mode_internal_frozen(tables.gate_params(), state)) {
    x0.x = tables.default_hold();
  }
  wave_.reset(t0, state, x0, tables.output_value(state));
}

void HybridGateChannel::on_input(double t, int port, bool value) {
  CHARLIE_ASSERT(port >= 0 && port < n_inputs());
  // The pure delay defers the switch.
  const double te = t + wave_.tables().delta_min();
  CHARLIE_ASSERT_MSG(te >= wave_.t_ref() - 1e-18,
                     "hybrid channel: out-of-order input");

  // A live crossing earlier than the effective switch time has physically
  // happened already -- the new input cannot cancel it (the pure delay
  // shifts the *effect* of the input past it). Only crossings after te
  // are recomputed.
  wave_.commit_through(te);

  // Evolve the analog state to the switch instant, then change mode.
  ode::Vec2 x = wave_.state_at(te);
  x.y = CHARLIE_FAULT_DOUBLE("hybrid_channel.state", x.y);
  // Guardrail at the mode-switch boundary: a non-finite analog state
  // (overflowed exponential, corrupted table) would propagate NaN into
  // every later crossing search of this channel. Fail the run loudly here
  // instead; the budgeted entry points turn this into a kFailed result.
  if (!std::isfinite(x.x) || !std::isfinite(x.y)) {
    ++util::RunCounters::local().nonfinite_guard_trips;
    throw ConvergenceError(
        "hybrid channel: non-finite analog state at a mode switch");
  }
  wave_.switch_mode(te, x, core::gate_state_with(wave_.mode(), port, value));
}

void HybridGateChannel::on_fire(const PendingEvent& fired) {
  wave_.fire(fired,
             "hybrid channel: fired event does not match the pending one");
}

}  // namespace charlie::sim
