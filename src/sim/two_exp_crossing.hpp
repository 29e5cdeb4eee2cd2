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

/// Scalar expansion of the output voltage on one mode segment. `valid` is
/// false when the mode's spectrum is defective/complex; callers must then
/// fall back to their generic scan.
struct TwoExpVo {
  bool valid = false;
  double d = 0.0;
  double a1 = 0.0;
  double l1 = 0.0;
  double a2 = 0.0;
  double l2 = 0.0;

  double value(double tau) const;
};

/// Expansion of a mode table entered at state `x_ref`: the mode-constant
/// pieces (l1, l2, projector row, particular solution) come precomputed
/// from the table; only the amplitudes depend on the entry state.
TwoExpVo two_exp_expand(const core::ModeTable& mt, const ode::Vec2& x_ref);

struct TwoExpCrossing {
  double tau = 0.0;  // crossing offset from the segment reference time
  bool rising = false;
};

/// First crossing of `vo` through `vth` in [tau0, tau0 + horizon], or
/// nullopt. Requires vo.valid and l1, l2 <= 0 (decaying modes).
std::optional<TwoExpCrossing> two_exp_next_crossing(const TwoExpVo& vo,
                                                    double vth, double tau0,
                                                    double horizon);

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
