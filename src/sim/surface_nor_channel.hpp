// Delay-function-based MIS-aware NOR channel.
//
// This mirrors how the paper integrated the hybrid model into the
// Involution Tool: instead of carrying the analog (V_N, V_O) state through
// the simulation (HybridGateChannel), each output transition's delay is
// looked up from the precomputed MIS curves delta_fall(Delta) /
// delta_rise(Delta) at the observed input separation (a DelaySurface).
//
// The two implementations coincide on well-separated transitions but
// differ on dense activity: the delay-function channel forgets the gate's
// analog history beyond the last two input events (e.g. a partially
// drained V_N), while the state-based channel is exact. Including both
// makes that design choice measurable (bench_fig7_accuracy --ablation).
#pragma once

#include "core/delay_surface.hpp"
#include "sim/channel.hpp"

namespace charlie::sim {

class SurfaceNorChannel final : public GateChannel {
 public:
  /// The surface is borrowed and must outlive the channel (it is large and
  /// typically shared by every gate instance of the same cell).
  explicit SurfaceNorChannel(const core::DelaySurface& surface);

  int n_inputs() const override { return 2; }
  void initialize(double t0, std::span<const bool> values) override;
  void on_input(double t, int port, bool value) override;
  void on_fire(const PendingEvent& fired) override;
  std::optional<PendingEvent> pending() const override { return live_; }
  bool initial_output() const override { return output_; }

 private:
  const core::DelaySurface& surface_;
  bool in_a_ = false;
  bool in_b_ = false;
  bool nor_value_ = true;  // zero-time boolean NOR of the inputs
  // Last transition time per input (for the Delta = tB - tA lookup);
  // -infinity-like before any transition.
  double t_last_a_ = -1.0;
  double t_last_b_ = -1.0;
  bool output_ = false;
  std::optional<PendingEvent> live_;
};

}  // namespace charlie::sim
