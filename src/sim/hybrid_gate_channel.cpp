#include "sim/hybrid_gate_channel.hpp"

#include <algorithm>
#include <cmath>

#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace charlie::sim {

HybridGateChannel::HybridGateChannel(const core::GateParams& params)
    : HybridGateChannel(core::GateModeTables::make(params)) {}

HybridGateChannel::HybridGateChannel(
    std::shared_ptr<const core::GateModeTables> tables)
    : tables_(std::move(tables)) {
  CHARLIE_ASSERT(tables_ != nullptr);
  mt_ = &tables_->state_table(state_);
  vth_ = tables_->vth();
  horizon_ = tables_->horizon();
  delta_min_ = tables_->delta_min();
  n_inputs_ = tables_->n_inputs();
}

void HybridGateChannel::rebind_tables(
    std::shared_ptr<const core::GateModeTables> tables) {
  CHARLIE_ASSERT(tables != nullptr);
  CHARLIE_ASSERT_MSG(tables->n_inputs() == n_inputs_,
                     "rebind_tables: arity mismatch");
  tables_ = std::move(tables);
  mt_ = &tables_->state_table(state_);
  vth_ = tables_->vth();
  horizon_ = tables_->horizon();
  delta_min_ = tables_->delta_min();
}

void HybridGateChannel::initialize(double t0,
                                   const std::vector<bool>& values) {
  CHARLIE_ASSERT(values.size() == static_cast<std::size_t>(n_inputs_));
  state_ = 0;
  for (int i = 0; i < n_inputs_; ++i) {
    state_ = core::gate_state_with(state_, i, values[i]);
  }
  mt_ = &tables_->state_table(state_);
  // Re-read the cached scalars: a shared worker-local table may have been
  // re-derived in place (process-variation rebinding) since the last run.
  vth_ = tables_->vth();
  horizon_ = tables_->horizon();
  delta_min_ = tables_->delta_min();
  t_ref_ = t0;
  // Steady state; an isolated internal stack node defaults to the
  // worst-case history value (GND for NOR-like, VDD for NAND-like).
  x_ref_ = mt_->steady;
  if (core::gate_mode_internal_frozen(tables_->gate_params(), state_)) {
    x_ref_.x = tables_->default_hold();
  }
  output_ = tables_->output_value(state_);
  refresh_scalar();
  committed_.clear();
  committed_head_ = 0;
  live_.reset();
}

std::optional<PendingEvent> HybridGateChannel::pending() const {
  if (committed_head_ < committed_.size()) return committed_[committed_head_];
  return live_;
}

ode::Vec2 HybridGateChannel::state_at(double t) const {
  CHARLIE_ASSERT(t >= t_ref_ - 1e-18);
  if (t <= t_ref_) return x_ref_;
  const double tau = t - t_ref_;
  const core::ModeTable& mt = *mt_;
  if (mt.spectral_valid) {
    const ode::Vec2 dev = x_ref_ - mt.xp;
    return mt.xp + std::exp(mt.l1 * tau) * (mt.s1 * dev) +
           std::exp(mt.l2 * tau) * (mt.s2 * dev);
  }
  return mt.ode.state_at(tau, x_ref_);
}

void HybridGateChannel::refresh_scalar() {
  scalar_ = two_exp_expand(*mt_, x_ref_);
}

std::optional<PendingEvent> HybridGateChannel::next_crossing(
    double t_from) const {
  if (!scalar_.valid) return next_crossing_scan(t_from);
  const double tau0 = std::max(t_from - t_ref_, 0.0);
  const auto crossing = two_exp_next_crossing(scalar_, vth_, tau0, horizon_);
  if (!crossing.has_value()) return std::nullopt;
  return PendingEvent{t_ref_ + crossing->tau, crossing->rising};
}

std::optional<PendingEvent> HybridGateChannel::next_crossing_scan(
    double t_from) const {
  const auto crossing = scan_vo_crossing(
      *mt_, vth_, t_from, horizon_,
      [this](double t) { return state_at(t).y; });
  if (!crossing.has_value()) return std::nullopt;
  return PendingEvent{crossing->t, crossing->rising};
}

void HybridGateChannel::on_input(double t, int port, bool value) {
  CHARLIE_ASSERT(port >= 0 && port < n_inputs_);
  const double te = t + delta_min_;  // pure delay defers the switch
  CHARLIE_ASSERT_MSG(te >= t_ref_ - 1e-18,
                     "hybrid channel: out-of-order input");

  // A live crossing earlier than the effective switch time has physically
  // happened already -- the new input cannot cancel it (the pure delay
  // shifts the *effect* of the input past it). Promote it to the committed
  // queue; only crossings after te are recomputed.
  double search_from = te;
  if (live_.has_value() && live_->t <= te) {
    committed_.push_back(*live_);
    // Multiple same-mode crossings before te would have been discovered
    // one at a time via on_fire; find any others up to te now.
    double from = live_->t + 1e-18;
    live_.reset();
    while (true) {
      const auto extra = next_crossing(from);
      if (!extra.has_value() || extra->t > te) break;
      committed_.push_back(*extra);
      from = extra->t + 1e-18;
    }
  } else {
    live_.reset();
  }

  // Evolve the analog state to the switch instant, then change mode.
  x_ref_ = state_at(te);
  x_ref_.y = CHARLIE_FAULT_DOUBLE("hybrid_channel.state", x_ref_.y);
  // Guardrail at the mode-switch boundary: a non-finite analog state
  // (overflowed exponential, corrupted table) would propagate NaN into
  // every later crossing search of this channel. Fail the run loudly here
  // instead; the budgeted entry points turn this into a kFailed result.
  if (!std::isfinite(x_ref_.x) || !std::isfinite(x_ref_.y)) {
    ++util::RunCounters::local().nonfinite_guard_trips;
    throw ConvergenceError(
        "hybrid channel: non-finite analog state at a mode switch");
  }
  t_ref_ = te;
  state_ = core::gate_state_with(state_, port, value);
  mt_ = &tables_->state_table(state_);
  refresh_scalar();

  live_ = next_crossing(search_from);
}

void HybridGateChannel::on_fire(const PendingEvent& fired) {
  output_ = fired.value;
  if (committed_head_ < committed_.size()) {
    // Desync between the engine's queue and the channel's committed list
    // would silently corrupt output traces; fail loudly instead.
    const PendingEvent& front = committed_[committed_head_];
    CHARLIE_ASSERT_MSG(front.t == fired.t && front.value == fired.value,
                       "hybrid channel: fired event does not match the "
                       "committed front");
    // Pop the front; a drained queue rewinds and keeps its capacity.
    if (++committed_head_ == committed_.size()) {
      committed_.clear();
      committed_head_ = 0;
    }
    return;
  }
  CHARLIE_ASSERT(live_.has_value());
  CHARLIE_ASSERT_MSG(live_->t == fired.t && live_->value == fired.value,
                     "hybrid channel: fired event does not match the live "
                     "crossing");
  // The waveform may cross again within the same mode (non-monotone V_O);
  // keep looking just past the crossing.
  live_ = next_crossing(fired.t + 1e-18);
}

}  // namespace charlie::sim
