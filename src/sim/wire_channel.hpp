// Hybrid interconnect channel: the RC wire between a driving channel and
// its fanout, simulated as a continuous analog system instead of a
// threshold-digitized edge.
//
// A WireChannel owns the collapsed 2-state wire model of a
// wire::WireModeTables (see wire/wire_tables.hpp) and performs analog state
// handoff between driver and receiver: the driver's output events switch
// the wire's drive state while the wire's analog state (slope, V_out)
// carries over continuously -- nothing resets at an event boundary, so the
// wire remembers how far the previous transition actually got. Output
// events are V_out = VDD/2 crossings of the resulting piecewise
// two-exponential waveform; they feed the receiving gate's mode-switch
// thresholds exactly like any other net transition. Drive switches are
// deferred by the first-moment drive-shape correction (1 - ln 2) t_drive
// (see wire/wire_params.hpp), the wire's analogue of the gate model's
// pure delay: it places the rail step at the centroid of the driver's
// real output edge.
//
// The continuous state is what distinguishes the hybrid wire from an
// inertial lumped-load delay: a pulse shorter than the wire's RC only
// partially charges the line, so the next edge starts from that partial
// state (short-pulse attenuation, slope-dependent delay, and glitch
// suppression all fall out of the dynamics instead of an ad-hoc rejection
// rule).
//
// All drive-state math is precomputed once per WireParams in the shared
// WireModeTables; the per-event work is the same two-exponential crossing
// solve the gate channels use (sim/two_exp_crossing.hpp).
#pragma once

#include <memory>

#include "sim/channel.hpp"
#include "sim/mode_waveform.hpp"
#include "wire/wire_tables.hpp"

namespace charlie::sim {

class WireChannel final : public SisChannel {
 public:
  /// Builds a private table. For many instances of the same wire geometry,
  /// precompute one table and use the sharing constructor instead.
  explicit WireChannel(const wire::WireParams& params);

  /// Shares an immutable collapsed table across channel instances.
  explicit WireChannel(std::shared_ptr<const wire::WireModeTables> tables);

  void initialize(double t0, bool value) override;
  void on_input(double t, bool value) override;
  void on_fire(const PendingEvent& fired) override;
  std::optional<PendingEvent> pending() const override {
    return wave_.pending();
  }
  bool initial_output() const override { return wave_.output(); }

  /// Current analog state (u, V_out) at time t >= last event time, where
  /// u = (b2/b1) dV_out/dt is the scaled slope state of the collapse.
  ode::Vec2 state_at(double t) const { return wave_.state_at(t); }

  /// Logic level currently driving the wire.
  bool drive_value() const { return wave_.mode() != 0; }

  const std::shared_ptr<const wire::WireModeTables>& wire_tables() const {
    return wave_.owner();
  }

 private:
  // Mode = the drive level (0 low, 1 high).
  ModeWaveform<wire::WireModeTables> wave_;
};

}  // namespace charlie::sim
