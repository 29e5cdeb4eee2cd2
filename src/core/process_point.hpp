// A process point: where in the manufacturing-variation space a die landed.
//
// The hybrid model fits one nominal GateParams set per cell (paper Table I /
// the SPICE fitting pipeline). Process variation perturbs those fitted
// parameters analytically instead of re-running the characterization: the
// switch-level abstraction maps every variation axis onto the effective
// on-resistances of the devices, so a process point is a small named vector
// of scale factors and the whole derivation pipeline -- GateParams ->
// 2^N mode ODEs -> ModeTable expansions -- becomes a cheap function of it
// (GateParams::derive_for, GateModeTables::rederive_at).
//
// Axes and their scale rule (first-order alpha-power-law argument):
//   * vdd_scale   -- supply scales to vdd' = vdd_scale * vdd. The logic
//     threshold follows (vth = vdd'/2, paper convention).
//   * vth_shift   -- device threshold shift in volts. The fitted on-
//     resistance of a conducting device varies inversely with its overdrive
//     (Vgs - Vt); with the device threshold pinned at the
//     kDeviceVtFraction * vdd convention used by the reference technology,
//       r' = r * overdrive_nominal / overdrive
//          = r * (1 - f) * vdd / (vdd_scale * vdd - f * vdd - vth_shift).
//   * drive_scale -- relative drive-strength (mobility * W/L) multiplier;
//     divides every on-resistance.
//
// Capacitances are treated as geometry-dominated and left at their fitted
// values; delta_min (the pure transport delay) scales with the RC product,
// i.e. with the same resistance factor.
#pragma once

#include <string>

namespace charlie::core {

/// Device-threshold convention of the reference technology: Vt = 0.3 * VDD.
/// resistance_scale() measures vth_shift against this baseline.
inline constexpr double kDeviceVtFraction = 0.3;

struct ProcessPoint {
  double vdd_scale = 1.0;    // supply multiplier (dimensionless)
  double vth_shift = 0.0;    // device threshold shift [volt]
  double drive_scale = 1.0;  // drive-strength multiplier (dimensionless)

  static ProcessPoint nominal() { return ProcessPoint{}; }

  bool is_nominal() const {
    return vdd_scale == 1.0 && vth_shift == 0.0 && drive_scale == 1.0;
  }

  /// Throws ConfigError unless the scale factors are positive and finite and
  /// the shift is finite.
  void validate() const;

  /// Common factor applied to every fitted on-resistance (and to delta_min)
  /// at this point, given the cell's nominal supply. Throws ConfigError when
  /// the overdrive closes (the devices would not conduct): that point is
  /// outside the model's validity region, not a slow corner.
  double resistance_scale(double vdd_nominal) const;

  /// Canonical textual identity (%.17g round-trip exact), stored as the
  /// corner row of a saved cell library alongside Technology::fingerprint().
  std::string fingerprint() const;
};

}  // namespace charlie::core
