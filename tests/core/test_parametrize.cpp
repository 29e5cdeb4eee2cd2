#include "core/gate_parametrize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace charlie::core {
namespace {

// Round-trip: characteristic delays generated from known parameters must be
// recoverable (up to model degeneracy) by the fit.
TEST(Parametrize, RoundTripOnModelGeneratedTargets) {
  const NorParams truth = NorParams::paper_table1();
  const CharacteristicDelays targets = characteristic_delays_exact(truth);
  GateFitOptions opts;
  opts.vdd = truth.vdd;
  opts.nelder_mead_evaluations = 2000;
  const FitResult fit = fit_nor_params(targets, opts);
  // The achieved characteristic delays must match the targets closely.
  EXPECT_LT(fit.gate.rms_error, 0.5e-12);
  EXPECT_NEAR(fit.achieved.fall_zero, targets.fall_zero, 0.5e-12);
  EXPECT_NEAR(fit.achieved.fall_minus_inf, targets.fall_minus_inf, 0.5e-12);
  EXPECT_NEAR(fit.achieved.rise_plus_inf, targets.rise_plus_inf, 1e-12);
}

TEST(Parametrize, RatioRuleRecoversPaperDeltaMin) {
  // Targets shaped like the paper's measurements (38/28 ps) must select
  // delta_min ~ 18 ps via the ratio-2 rule.
  CharacteristicDelays t;
  t.fall_minus_inf = 38e-12;
  t.fall_zero = 28e-12;
  t.fall_plus_inf = 39e-12;
  t.rise_minus_inf = 55e-12;
  t.rise_zero = 56e-12;
  t.rise_plus_inf = 53e-12;
  GateFitOptions opts;
  opts.nelder_mead_evaluations = 600;  // delta_min choice is closed-form
  const FitResult fit = fit_nor_params(t, opts);
  EXPECT_NEAR(fit.params.delta_min, 18e-12, 0.2e-12);
}

TEST(Parametrize, ForcedDeltaMinHonored) {
  CharacteristicDelays t;
  t.fall_minus_inf = 44e-12;
  t.fall_zero = 29e-12;
  t.fall_plus_inf = 48e-12;
  t.rise_minus_inf = 52e-12;
  t.rise_zero = 57e-12;
  t.rise_plus_inf = 50e-12;
  GateFitOptions opts;
  opts.forced_delta_min = 0.0;
  opts.nelder_mead_evaluations = 600;
  const FitResult fit = fit_nor_params(t, opts);
  EXPECT_DOUBLE_EQ(fit.params.delta_min, 0.0);
  // Without the pure delay the ratio cannot be matched: worse fit than
  // with the ratio rule.
  GateFitOptions with;
  with.nelder_mead_evaluations = 600;
  const FitResult fit2 = fit_nor_params(t, with);
  EXPECT_GT(fit.gate.rms_error, fit2.gate.rms_error);
}

TEST(Parametrize, FittedParametersStayPhysical) {
  CharacteristicDelays t;
  t.fall_minus_inf = 44.6e-12;
  t.fall_zero = 28.6e-12;
  t.fall_plus_inf = 48.3e-12;
  t.rise_minus_inf = 52.1e-12;
  t.rise_zero = 56.8e-12;
  t.rise_plus_inf = 50.0e-12;
  GateFitOptions opts;
  opts.nelder_mead_evaluations = 1200;
  const FitResult fit = fit_nor_params(t, opts);
  for (double r : {fit.params.r1, fit.params.r2, fit.params.r3,
                   fit.params.r4}) {
    EXPECT_GT(r, 500.0);
    EXPECT_LT(r, 1e6);
  }
  EXPECT_GT(fit.params.cn, 1e-18);
  EXPECT_LT(fit.params.cn, 1e-14);
  EXPECT_GT(fit.params.co, 1e-17);
  EXPECT_LT(fit.params.co, 1e-13);
  EXPECT_NO_THROW(fit.params.validate());
}

TEST(Parametrize, SeedSatisfiesClosedFormRelations) {
  CharacteristicDelays t;
  t.fall_minus_inf = 20e-12;
  t.fall_zero = 10e-12;
  t.fall_plus_inf = 21e-12;
  t.rise_minus_inf = 37e-12;
  t.rise_zero = 37e-12;
  t.rise_plus_inf = 35e-12;
  // The ratio is exactly 2, so delta_min = 0 and the fitted raw model must
  // meet eqs (9) and (8) on the targets themselves.
  GateFitOptions opts;
  opts.nelder_mead_evaluations = 1200;
  const FitResult fit = fit_nor_params(t, opts);
  EXPECT_DOUBLE_EQ(fit.params.delta_min, 0.0);
  EXPECT_NEAR(paper_fall_minus_inf(fit.params), t.fall_minus_inf, 1e-15);
  EXPECT_NEAR(paper_fall_zero(fit.params), t.fall_zero, 1e-15);
}

TEST(Parametrize, RejectsInvalidTargets) {
  CharacteristicDelays bad;
  bad.fall_minus_inf = 20e-12;
  bad.fall_zero = 25e-12;  // no speed-up: not a Charlie-effect gate
  bad.fall_plus_inf = 21e-12;
  bad.rise_minus_inf = 30e-12;
  bad.rise_zero = 31e-12;
  bad.rise_plus_inf = 29e-12;
  EXPECT_THROW(fit_nor_params(bad), ConfigError);
  bad.fall_zero = -1e-12;
  EXPECT_THROW(fit_nor_params(bad), ConfigError);
}

TEST(Parametrize, ReportsDiagnostics) {
  CharacteristicDelays t;
  t.fall_minus_inf = 40e-12;
  t.fall_zero = 25e-12;
  t.fall_plus_inf = 42e-12;
  t.rise_minus_inf = 50e-12;
  t.rise_zero = 53e-12;
  t.rise_plus_inf = 48e-12;
  GateFitOptions opts;
  opts.nelder_mead_evaluations = 400;
  const FitResult fit = fit_nor_params(t, opts);
  EXPECT_GT(fit.gate.evaluations, 0);
  EXPECT_GE(fit.gate.objective, 0.0);
  EXPECT_DOUBLE_EQ(fit.gate.targets.fall_all, t.fall_zero);
}

}  // namespace
}  // namespace charlie::core
