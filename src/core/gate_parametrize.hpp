// Model parametrization (paper Section V), for the paper's NOR2 and the
// generalized N-input gate alike.
//
// Given measured characteristic delays of a real gate -- per-input
// single-input-switching (SIS) delays plus the two simultaneous-switching
// extremes -- find per-input series/parallel resistances and the two node
// capacitances such that the hybrid model reproduces them.
//
// A direct simultaneous match of the slowest SIS delay and the
// simultaneous-switching one on the parallel-network side is impossible
// whenever their ratio exceeds what the RC network can achieve: for the
// NOR2, delta_fall(-inf)/delta_fall(0) = R4/(R3 || R4) = (R3+R4)/R3 ~= 2
// (Section IV); n parallel devices can speed up the simultaneous transition
// at most n-fold. So a pure delay delta_min is first chosen to restore a
// fittable ratio (18 ps for the paper's gate), then the R/C values are
// fitted by weighted least squares in log space on the delta_min-corrected
// targets.
//
// The delays fix only the R*C products: scaling every R by k and every C by
// 1/k leaves every delay unchanged, so a fit's R/C values are one point on
// that line.
#pragma once

#include <vector>

#include "core/charlie_delays.hpp"
#include "core/gate_delay.hpp"
#include "core/gate_params.hpp"

namespace charlie::core {

/// Measured characteristic delays of an n-input gate (all include whatever
/// pure delay the substrate exhibits; the fit strips delta_min itself).
/// Layout matches core::GateSisDelays.
struct GateTargets {
  std::vector<double> fall;  // per-input SIS delay, output falling [s]
  std::vector<double> rise;  // per-input SIS delay, output rising [s]
  double fall_all = 0.0;     // all inputs rise simultaneously
  double rise_all = 0.0;     // all inputs fall simultaneously
};

struct GateFitOptions {
  double vdd = 0.8;
  // >= 0: pin delta_min to this value. Like every delta_min the fit
  // chooses, it is still capped at 0.9x the smallest measured target so
  // the corrected targets stay positive; check GateFitResult::params for
  // the value actually used.
  double forced_delta_min = -1.0;
  int nelder_mead_evaluations = 2500;
};

struct GateFitResult {
  GateParams params;     // includes the chosen delta_min
  GateTargets targets;   // what was asked for
  GateTargets achieved;  // what the fitted model produces (incl. delta_min)
  double rms_error = 0.0;  // RMS over all 2n+2 targets [s]
  double objective = 0.0;
  int evaluations = 0;
  // Infeasible objective evaluations (ConvergenceError from the delay
  // solve) swallowed as penalty values during this fit.
  int swallowed_fallbacks = 0;
};

/// Fit the generalized hybrid model to measured characteristic delays.
/// Unless options.forced_delta_min pins it, delta_min maps the slowest SIS
/// delay over the simultaneous one on the parallel-network side (falling
/// for NOR-like, rising for NAND-like) onto the ratio n.
/// Throws ConfigError when targets are non-positive or inconsistent.
GateFitResult fit_gate_params(GateTopology topology,
                              const GateTargets& measured,
                              const GateFitOptions& options = {});

/// The paper's NOR2 fit: fit_gate_params(kNorLike) seen as NorParams.
struct FitResult {
  NorParams params;               // includes the chosen delta_min
  CharacteristicDelays achieved;  // characteristic_delays_exact(params)
  GateFitResult gate;             // the fit behind it: RMS, evaluations...
};

/// Fit the paper's NOR2 to its six characteristic Charlie delays. Port A
/// (input 0) carries fall(+inf) and rise(-inf), port B (input 1) fall(-inf)
/// and rise(+inf); fall(0) and rise(0) are the simultaneous targets. Unless
/// options.forced_delta_min pins it, delta_min comes from the Section IV
/// rule on fall(-inf)/fall(0), not from the slowest SIS delay
/// fit_gate_params would use (17 instead of 18 ps on the paper's targets).
/// Throws ConfigError unless every delay is > 0 and fall(-inf) > fall(0).
FitResult fit_nor_params(const CharacteristicDelays& measured,
                         const GateFitOptions& options = {});

}  // namespace charlie::core
