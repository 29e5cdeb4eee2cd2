// Shared machinery for the figure/table reproduction benches: substrate
// characterization and hybrid-model calibration, done once per process.
#pragma once

#include <iostream>
#include <string>

#include "core/gate_parametrize.hpp"
#include "spice/characterize.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace charlie::bench {

struct Calibration {
  spice::Technology tech;
  spice::SubstrateCharacteristics substrate;
  core::FitResult fit;           // with the ratio-rule delta_min
  core::NorParams params;        // fit.params
  core::NorParams params_stripped;  // same R/C, delta_min = 0 ("HM w/o dmin")
};

inline core::CharacteristicDelays to_targets(
    const spice::SubstrateCharacteristics& s) {
  core::CharacteristicDelays t;
  t.fall_minus_inf = s.fall_minus_inf;
  t.fall_zero = s.fall_zero;
  t.fall_plus_inf = s.fall_plus_inf;
  t.rise_minus_inf = s.rise_minus_inf;
  t.rise_zero = s.rise_zero;
  t.rise_plus_inf = s.rise_plus_inf;
  return t;
}

/// Measure the analog NOR2 and fit the hybrid model to it (Section V flow).
inline Calibration calibrate(bool verbose = true) {
  Calibration c;
  c.tech = spice::Technology::freepdk15_like();
  if (verbose) std::cout << "[calibrate] measuring analog substrate...\n";
  c.substrate = spice::measure_characteristics(c.tech);
  core::GateFitOptions opts;
  opts.vdd = c.tech.vdd;
  opts.nelder_mead_evaluations = 2000;
  if (verbose) std::cout << "[calibrate] fitting hybrid model...\n";
  c.fit = core::fit_nor_params(to_targets(c.substrate), opts);
  c.params = c.fit.params;
  c.params_stripped = c.fit.params;
  c.params_stripped.delta_min = 0.0;
  if (verbose) {
    std::cout << "[calibrate] " << c.params.to_string() << "\n"
              << "[calibrate] fit RMS error "
              << units::format_time(c.fit.gate.rms_error) << "\n\n";
  }
  return c;
}

inline double ps(double seconds) { return seconds / units::ps; }

}  // namespace charlie::bench
