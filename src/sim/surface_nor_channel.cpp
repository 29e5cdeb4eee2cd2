#include "sim/surface_nor_channel.hpp"

#include "util/error.hpp"

namespace charlie::sim {

SurfaceNorChannel::SurfaceNorChannel(const core::DelaySurface& surface)
    : surface_(surface) {}

void SurfaceNorChannel::initialize(double t0, std::span<const bool> values) {
  CHARLIE_ASSERT(values.size() == 2);
  in_a_ = values[0];
  in_b_ = values[1];
  nor_value_ = !(in_a_ || in_b_);
  output_ = nor_value_;
  t_last_a_ = t0 - 1.0;  // effectively -infinity on circuit time scales
  t_last_b_ = t0 - 1.0;
  live_.reset();
}

void SurfaceNorChannel::on_input(double t, int port, bool value) {
  CHARLIE_ASSERT(port == 0 || port == 1);
  const double t_other = port == 0 ? t_last_b_ : t_last_a_;
  if (port == 0) {
    in_a_ = value;
    t_last_a_ = t;
  } else {
    in_b_ = value;
    t_last_b_ = t;
  }
  const bool nor_new = !(in_a_ || in_b_);

  if (nor_new != nor_value_) {
    nor_value_ = nor_new;
    if (live_.has_value()) {
      // The pending event targeted the previous boolean value; the gate
      // output returning to its committed value annihilates both (IDM
      // cancellation).
      CHARLIE_ASSERT(nor_new == output_);
      live_.reset();
      return;
    }
    if (!nor_new) {
      // Falling output: triggered by this (first) rising input; the other
      // input is still low, so at this point Delta is at its SIS
      // asymptote. If the second input follows, the reschedule branch
      // below updates the delay. Delta = tB - tA: A first => +inf.
      const double delta = port == 0 ? 1.0 : -1.0;  // beyond the table range
      live_ = PendingEvent{t + surface_.falling(delta), false};
    } else {
      // Rising output: this falling input is the later one; the other
      // input's last transition was its fall.
      const double delta = port == 0 ? t_other - t : t - t_other;
      live_ = PendingEvent{t + surface_.rising(delta), true};
    }
    return;
  }

  // Boolean output unchanged. The one MIS-relevant case: a pending falling
  // event exists (first input rose) and the *second* input rises, entering
  // (1,1) -- now Delta is known and the delay is re-evaluated from the
  // earlier input (the paper's delta_fall(Delta) measured from
  // min(tA, tB)).
  if (live_.has_value() && !live_->value && value) {
    const double t_first = t_other;  // the other input rose earlier
    const double delta = port == 1 ? t - t_first : t_first - t;
    live_ = PendingEvent{t_first + surface_.falling(delta), false};
  }
}

void SurfaceNorChannel::on_fire(const PendingEvent& fired) {
  CHARLIE_ASSERT(live_.has_value());
  output_ = fired.value;
  live_.reset();
}

}  // namespace charlie::sim
