#include "sim/wire_channel.hpp"

#include "util/error.hpp"

namespace charlie::sim {

WireChannel::WireChannel(const wire::WireParams& params)
    : WireChannel(wire::WireModeTables::make(params)) {}

WireChannel::WireChannel(std::shared_ptr<const wire::WireModeTables> tables)
    : wave_(std::move(tables)) {}

void WireChannel::initialize(double t0, bool value) {
  // Line fully settled at the driving rail.
  wave_.reset(t0, value ? 1u : 0u,
              wave_.tables().drive_table(value).steady, value);
}

void WireChannel::on_input(double t, bool value) {
  if (value == drive_value()) return;  // defensive; the engine filters no-ops
  // The drive-shape correction defers the switch to the centroid of the
  // driver's output edge (wire_params.hpp): the rail flip acts at te.
  const double te = t + wave_.tables().drive_delay();
  CHARLIE_ASSERT_MSG(te >= wave_.t_ref() - 1e-18,
                     "wire channel: out-of-order input");
  // A live crossing at or before the effective switch instant has
  // physically happened and can no longer be cancelled.
  wave_.commit_through(te);
  // Analog handoff: evolve the line state to the switch instant, then flip
  // the drive rail. V_out and its slope carry over continuously.
  wave_.switch_mode(te, wave_.state_at(te), value ? 1u : 0u);
}

void WireChannel::on_fire(const PendingEvent& fired) {
  // The waveform may cross again within the same drive state (the slope
  // state can carry V_out back through the threshold).
  wave_.fire(fired,
             "wire channel: fired event does not match the pending one");
}

}  // namespace charlie::sim
