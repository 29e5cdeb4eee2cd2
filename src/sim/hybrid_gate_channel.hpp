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
#include <vector>

#include "core/gate_mode_tables.hpp"
#include "sim/channel.hpp"
#include "sim/two_exp_crossing.hpp"

namespace charlie::sim {

class HybridGateChannel final : public GateChannel {
 public:
  /// Builds a private mode table. For many instances of the same cell,
  /// precompute one table and use the sharing constructor instead.
  explicit HybridGateChannel(const core::GateParams& params);

  /// Shares an immutable mode table across channel instances.
  explicit HybridGateChannel(
      std::shared_ptr<const core::GateModeTables> tables);

  int n_inputs() const override { return n_inputs_; }
  void initialize(double t0, const std::vector<bool>& values) override;
  void on_input(double t, int port, bool value) override;
  void on_fire(const PendingEvent& fired) override;
  std::optional<PendingEvent> pending() const override;
  bool initial_output() const override { return output_; }

  /// Current analog state (V_int, V_O) at time t >= last event time.
  ode::Vec2 state_at(double t) const;

  /// Current input state (bit i = logic level of input i, post pure delay).
  core::GateState input_state() const { return state_; }

  const std::shared_ptr<const core::GateModeTables>& gate_tables() const {
    return tables_;
  }

  /// Swap in different mode tables of the same arity (the per-run
  /// process-variation rebinding path). Only legal between runs: call
  /// initialize() before the next simulation. Rebinding the original
  /// tables restores the channel bit-exactly.
  void rebind_tables(std::shared_ptr<const core::GateModeTables> tables);

 private:
  std::optional<PendingEvent> next_crossing(double t_from) const;
  std::optional<PendingEvent> next_crossing_scan(double t_from) const;
  void refresh_scalar();

  std::shared_ptr<const core::GateModeTables> tables_;
  const core::ModeTable* mt_ = nullptr;  // current mode's table entry
  // Cached table scalars, read on every event:
  double vth_ = 0.0;
  double horizon_ = 0.0;
  double delta_min_ = 0.0;
  int n_inputs_ = 0;
  core::GateState state_ = 0;  // logical input levels (post pure delay)
  // Scalar two-exponential expansion of V_O on the current segment (see
  // sim/two_exp_crossing.hpp); the crossing search runs on it instead of a
  // linear scan (hot path for event-driven simulation).
  TwoExpVo scalar_{};
  double t_ref_ = 0.0;   // time of the state snapshot
  ode::Vec2 x_ref_{};    // (V_int, V_O) at t_ref_
  bool output_ = false;
  // Crossings that precede the effective time of the latest input are
  // physically decided and can no longer be cancelled; the live crossing
  // of the current mode can. See on_input. The committed queue is a FIFO
  // of committed_[committed_head_..]: almost always empty, so unlike a
  // std::deque it allocates nothing until the first push.
  std::vector<PendingEvent> committed_;
  std::size_t committed_head_ = 0;
  std::optional<PendingEvent> live_;
};

}  // namespace charlie::sim
