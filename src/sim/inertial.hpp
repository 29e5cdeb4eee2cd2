// Inertial delay channel: constant rise/fall delay, with pulse rejection --
// an input transition arriving while a previous output event is still
// pending annihilates both (the classic inertial cancellation, equivalent
// to suppressing pulses shorter than the delay).
#pragma once

#include "sim/channel.hpp"

namespace charlie::sim {

class InertialChannel final : public SisChannel {
 public:
  InertialChannel(double delay_up, double delay_down);

  void initialize(double t0, bool value) override;
  void on_input(double t, bool value) override;
  void on_fire(const PendingEvent& fired) override;
  std::optional<PendingEvent> pending() const override {
    if (!has_pending_) return std::nullopt;
    return PendingEvent{pending_t_, pending_value_};
  }
  bool initial_output() const override { return output_; }

  double delay_up() const { return delay_up_; }
  double delay_down() const { return delay_down_; }

  /// Retarget the delays (per-run process-variation binding). Only legal
  /// between runs: an already-pending event keeps the delay it was
  /// scheduled with.
  void set_delays(double delay_up, double delay_down);

 private:
  // The pending event's fields, packed with the flags: sim::Circuit keeps
  // inertial channels by value in one array.
  double pending_t_ = 0.0;
  bool has_pending_ = false;
  bool pending_value_ = false;
  bool output_ = false;  // committed output value
  double delay_up_;
  double delay_down_;
};

}  // namespace charlie::sim
