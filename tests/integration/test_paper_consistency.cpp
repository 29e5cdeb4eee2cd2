// Cross-checks tying the implementation to the paper's published numbers:
// Table I parameters must reproduce the Fig 2/5/6 characteristic delays and
// the Section IV/V narrative.
#include <gtest/gtest.h>

#include "core/charlie_delays.hpp"
#include "core/delay_model.hpp"
#include "core/gate_parametrize.hpp"

namespace charlie {
namespace {

using core::CharacteristicDelays;
using core::NorDelayModel;
using core::NorParams;

class PaperNumbers : public ::testing::Test {
 protected:
  const NorParams p_ = NorParams::paper_table1();
  const NorDelayModel model_{p_};
};

TEST_F(PaperNumbers, Figure2bFallingValues) {
  // Fig 2b: delta_fall(-inf) ~ 38 ps, delta_fall(0) ~ 28 ps, ~-28 % MIS.
  EXPECT_NEAR(model_.falling_sis_b_first(), 38.9e-12, 0.5e-12);
  EXPECT_NEAR(model_.falling_delay(0.0).delay, 28.0e-12, 0.5e-12);
}

TEST_F(PaperNumbers, Figure2dRisingValues) {
  // Fig 2d: rising delays in 53..56 ps.
  const double lo = 52e-12;
  const double hi = 57e-12;
  for (double d : {model_.rising_sis_a_first(), model_.rising_sis_b_first(),
                   model_.rising_delay(0.0, 0.0).delay}) {
    EXPECT_GT(d, lo);
    EXPECT_LT(d, hi);
  }
}

TEST_F(PaperNumbers, SectionIvDeltaMinDerivation) {
  // delta_min = 18 ps makes the effective ratio 20/10 = 2 (paper's words:
  // "This results in an effective ratio of 20 ps / 10 ps = 2").
  const double fall0_raw = model_.falling_delay(0.0).delay - p_.delta_min;
  const double fallm_raw = model_.falling_sis_b_first() - p_.delta_min;
  EXPECT_NEAR(fall0_raw, 10e-12, 0.1e-12);
  EXPECT_NEAR(fallm_raw, 20.9e-12, 0.1e-12);
  EXPECT_NEAR(fallm_raw / fall0_raw, 2.08, 0.02);
}

TEST_F(PaperNumbers, Figure5ShapeFallingModelCurve) {
  // The model's falling curve: V-shaped with minimum at 0, saturating at
  // the SIS values within ~|Delta| > 60 ps (Fig 5's x-range).
  const double at60 = model_.falling_delay(60e-12).delay;
  const double sis = model_.falling_sis_a_first();
  EXPECT_NEAR(at60, sis, 0.6e-12);
  const double atm60 = model_.falling_delay(-60e-12).delay;
  EXPECT_NEAR(atm60, model_.falling_sis_b_first(), 0.6e-12);
}

TEST_F(PaperNumbers, Figure6RisingCurvesByHistory) {
  // Fig 6: for V_N = GND the Delta < 0 branch is flat; for V_N = VDD it
  // drops below; all curves meet at the Delta >= 0 branch as Delta grows.
  const double flat1 = model_.rising_delay(-20e-12, 0.0).delay;
  const double flat2 = model_.rising_delay(-70e-12, 0.0).delay;
  EXPECT_NEAR(flat1, flat2, 1e-15);
  const double vdd_hist = model_.rising_delay(-20e-12, p_.vdd).delay;
  EXPECT_LT(vdd_hist, flat1);
  // Delta >> 0: history forgotten (N recharged through T1 regardless).
  EXPECT_NEAR(model_.rising_delay(150e-12, 0.0).delay,
              model_.rising_delay(150e-12, p_.vdd).delay, 0.3e-12);
}

TEST_F(PaperNumbers, SectionVParameterSensitivities) {
  // "delta_fall(0) is determined by CO, R3, R4" -- scaling R1 must leave
  // the whole falling curve untouched.
  NorParams q = p_;
  q.r1 *= 3.0;
  const NorDelayModel m2(q);
  for (double delta : {-40e-12, 0.0, 40e-12}) {
    EXPECT_NEAR(m2.falling_delay(delta).delay,
                model_.falling_delay(delta).delay, 1e-15);
  }
}

TEST(PaperFit, Table1LikeParametersRecoveredFromPaperTargets) {
  // Feed the fit the paper's own characteristic values; the result must
  // reproduce them as well as Table I does (the parametrization problem
  // the paper solves in Section V).
  const NorParams table1 = NorParams::paper_table1();
  const CharacteristicDelays targets =
      core::characteristic_delays_exact(table1);
  core::GateFitOptions opts;
  opts.vdd = table1.vdd;
  opts.nelder_mead_evaluations = 2500;
  const auto fit = core::fit_nor_params(targets, opts);
  EXPECT_NEAR(fit.params.delta_min, 18e-12, 1.5e-12);
  EXPECT_LT(fit.gate.rms_error, 0.5e-12);
  // R3, R4 are pinned by eqs (8)-(9) given C_O; check the products that
  // the closed forms fix exactly.
  EXPECT_NEAR(fit.params.co * fit.params.r4, table1.co * table1.r4,
              0.05 * table1.co * table1.r4);
}

}  // namespace
}  // namespace charlie
