// 1-D minimization (Brent's parabolic-interpolation method).
//
// Plays the role of MATLAB's fminbnd, which the paper used to validate its
// characteristic-delay equations; we use it for the delta_min line search of
// `parametrize_gate --fit-delta-min`.
#pragma once

#include <functional>

namespace charlie::fit {

struct MinimizeOptions {
  double xtol = 1e-10;
  int max_iterations = 200;
};

struct MinimizeResult {
  double x = 0.0;
  double f = 0.0;
  int iterations = 0;
};

/// Minimize `f` over [a, b]. Unimodality is assumed; for multimodal
/// functions the result is a local minimum.
MinimizeResult brent_minimize(const std::function<double(double)>& f,
                              double a, double b,
                              const MinimizeOptions& opts = {});

}  // namespace charlie::fit
