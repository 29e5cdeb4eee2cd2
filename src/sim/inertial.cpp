#include "sim/inertial.hpp"

#include "util/error.hpp"

namespace charlie::sim {

InertialChannel::InertialChannel(double delay_up, double delay_down)
    : delay_up_(delay_up), delay_down_(delay_down) {
  CHARLIE_ASSERT(delay_up >= 0.0 && delay_down >= 0.0);
}

void InertialChannel::set_delays(double delay_up, double delay_down) {
  CHARLIE_ASSERT(delay_up >= 0.0 && delay_down >= 0.0);
  delay_up_ = delay_up;
  delay_down_ = delay_down;
}

void InertialChannel::initialize(double t0, bool value) {
  (void)t0;
  output_ = value;
  has_pending_ = false;
}

void InertialChannel::on_input(double t, bool value) {
  if (has_pending_) {
    // The pulse between the previous input transition and this one is
    // shorter than the channel delay: both transitions are swallowed.
    has_pending_ = false;
    CHARLIE_ASSERT_MSG(value == output_,
                       "inertial channel: input did not alternate");
    return;
  }
  if (value == output_) {
    return;  // no-op transition (can follow a cancellation)
  }
  has_pending_ = true;
  pending_t_ = t + (value ? delay_up_ : delay_down_);
  pending_value_ = value;
}

void InertialChannel::on_fire(const PendingEvent& fired) {
  CHARLIE_ASSERT(has_pending_);
  output_ = fired.value;
  has_pending_ = false;
}

}  // namespace charlie::sim
