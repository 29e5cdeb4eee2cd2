// The paper's contribution generalized to N inputs: a MIS-aware delay
// channel for series/parallel CMOS gates (NOR2/NOR3/NAND2/NAND3/...),
// driven by the 2^N-mode hybrid ODE model.
//
// The channel integrates the exact closed-form mode trajectories of
// (V_int, V_O). Every input threshold crossing switches the mode after the
// pure delay delta_min; output events are V_O = VDD/2 crossings of the
// resulting piecewise-exponential waveform. Cancellation (glitch
// suppression) follows automatically: if a mode switch makes a pending
// crossing unreachable, it simply never happens.
//
// Unlike single-input channels, this channel sees *which* input switched
// and *when*, so all the MIS behaviour of Sections III-IV -- speed-up for
// near-simultaneous switching on the parallel network, the internal-node
// history effect of the series stack -- carries over to trace simulation
// for every arity.
//
// All mode-level math (ODEs, spectra, projector rows, steady states) is
// precomputed once per GateParams in a core::GateModeTables that many
// channel instances share; the per-event work is a handful of multiply-adds
// plus a Newton crossing solve.
#pragma once

#include <memory>
#include <span>

#include "core/gate_mode_tables.hpp"
#include "sim/channel.hpp"
#include "sim/mode_waveform.hpp"

namespace charlie::sim {

class HybridGateChannel final : public GateChannel {
 public:
  /// Builds a private mode table. For many instances of the same cell,
  /// precompute one table and use the sharing constructor instead.
  explicit HybridGateChannel(const core::GateParams& params);

  /// Shares an immutable mode table across channel instances.
  explicit HybridGateChannel(
      std::shared_ptr<const core::GateModeTables> tables);

  int n_inputs() const override { return wave_.tables().n_inputs(); }
  void initialize(double t0, std::span<const bool> values) override;
  void on_input(double t, int port, bool value) override;
  void on_fire(const PendingEvent& fired) override;
  std::optional<PendingEvent> pending() const override {
    return wave_.pending();
  }
  bool initial_output() const override { return wave_.output(); }

  /// Current analog state (V_int, V_O) at time t >= last event time.
  ode::Vec2 state_at(double t) const { return wave_.state_at(t); }

  /// Current input state (bit i = logic level of input i, post pure delay).
  core::GateState input_state() const { return wave_.mode(); }

  const std::shared_ptr<const core::GateModeTables>& gate_tables() const {
    return wave_.owner();
  }

  /// Swap in different mode tables of the same arity (the per-run
  /// process-variation rebinding path). Only legal between runs: call
  /// initialize() before the next simulation. Rebinding the original
  /// tables restores the channel bit-exactly.
  void rebind_tables(std::shared_ptr<const core::GateModeTables> tables);

 private:
  // Mode = the input state; table scalars (threshold, horizon, pure delay,
  // mode entries) are read through the tables every instance of a cell
  // shares.
  ModeWaveform<core::GateModeTables> wave_;
};

}  // namespace charlie::sim
