// Threshold-crossing search on the two-exponential scalar expansion.
//
// Every mode segment of the hybrid machinery -- gate modes and collapsed
// RC-wire drive states alike -- writes the output voltage as
//
//   V_O(t_ref + tau) = d + a1 e^{l1 tau} + a2 e^{l2 tau},
//
// a two-exponential-plus-constant with at most one interior extremum and at
// most two threshold crossings. The search below reduces the per-event
// crossing problem to a handful of exp() evaluations plus a safeguarded
// Newton solve (Brent only on non-convergence). HybridGateChannel and
// sim::WireChannel both run it through sim::ModeWaveform
// (sim/mode_waveform.hpp), which also holds the generic-scan fallback.
#pragma once

#include <functional>
#include <optional>

#include "core/gate_mode_tables.hpp"
#include "ode/vec2.hpp"

namespace charlie::sim {

struct TwoExpCrossing {
  double tau = 0.0;  // crossing offset from the segment reference time
  bool rising = false;
};

/// First crossing of `vo` through `vth` in [tau0, tau0 + horizon], or
/// nullopt. Requires vo.valid and l1, l2 <= 0 (decaying modes).
std::optional<TwoExpCrossing> two_exp_next_crossing(
    const core::TwoExpVo& vo, double vth, double tau0, double horizon);

struct ScanCrossing {
  double t = 0.0;  // absolute time of the crossing
  bool rising = false;
};

/// Generic fallback for modes with a defective/complex spectrum (no scalar
/// expansion): sample `vo_at` (absolute-time output voltage) at a fraction
/// of the mode's fastest rate -- never more than ~4k evaluations per
/// window -- bracket a sign change, and polish with Brent. Cold path: the
/// std::function indirection is irrelevant here.
std::optional<ScanCrossing> scan_vo_crossing(
    const core::ModeTable& mt, double vth, double t_from, double horizon,
    const std::function<double(double)>& vo_at);

}  // namespace charlie::sim
