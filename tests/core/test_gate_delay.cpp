#include "core/gate_delay.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/delay_model.hpp"
#include "core/gate_parametrize.hpp"
#include "util/error.hpp"

namespace charlie::core {
namespace {

// The generalized crossing solver must agree with the NOR2 closed-form
// delay model on its own scenarios (delta_min excluded on both sides).
TEST(GateDelay, Nor2SisDelaysMatchDelayModel) {
  NorParams nor = NorParams::paper_table1();
  nor.delta_min = 0.0;
  const NorDelayModel model(nor);
  const GateModeTables tables(GateParams::from_nor(nor));
  const auto delays = gate_characteristic_delays(tables);
  ASSERT_EQ(delays.fall.size(), 2u);
  // Port A is input 0, port B input 1, so every SIS entry is one of the
  // model's asymptotes. fall[0]: A rises alone, delta_fall(+inf).
  EXPECT_NEAR(delays.fall[0], model.falling_sis_a_first(), 1e-14);
  // fall[1]: B rises alone -- the model's SIS "B first" asymptote.
  EXPECT_NEAR(delays.fall[1], model.falling_sis_b_first(), 1e-14);
  // rise[0]: A falls last, long after B, delta_rise(-inf); rise[1]: B
  // falls last, delta_rise(+inf).
  EXPECT_NEAR(delays.rise[0], model.rising_sis_b_first(0.0), 1e-14);
  EXPECT_NEAR(delays.rise[1], model.rising_sis_a_first(0.0), 1e-14);
  // Simultaneous rising inputs: delta = 0 falling delay.
  EXPECT_NEAR(delays.fall_all, model.falling_delay(0.0).delay, 1e-14);
  // Simultaneous falling inputs from the drained (1,1) history.
  EXPECT_NEAR(delays.rise_all, model.rising_delay(0.0, 0.0).delay, 1e-14);
}

TEST(GateDelay, Nor2MisTrajectoryMatchesDelayModel) {
  NorParams nor = NorParams::paper_table1();
  nor.delta_min = 0.0;
  const NorDelayModel model(nor);
  const GateModeTables tables(GateParams::from_nor(nor));
  for (double delta : {10e-12, 40e-12}) {
    // A rises at 0, B at delta: the paper's falling MIS scenario.
    const GateInputEvent events[] = {{0.0, 0, true}, {delta, 1, true}};
    const double t = gate_output_crossing(tables, 0u, 0.0, events,
                                          /*rising=*/false);
    EXPECT_NEAR(t, model.falling_delay(delta).delay, 1e-13)
        << "delta=" << delta;
  }
}

TEST(GateDelay, MultiInputSpeedupAndStackSlowdown) {
  for (const GateParams& p :
       {GateParams::nor3_reference(), GateParams::nand3_reference()}) {
    GateParams raw = p;
    raw.delta_min = 0.0;
    const GateModeTables tables(raw);
    const auto d = gate_characteristic_delays(tables);
    ASSERT_EQ(d.fall.size(), 3u);
    for (double v : d.fall) EXPECT_GT(v, 0.0);
    for (double v : d.rise) EXPECT_GT(v, 0.0);
    if (p.topology == GateTopology::kNorLike) {
      // Three parallel nMOS switching together beat every single one (the
      // Charlie speed-up, now 3-strong)...
      EXPECT_LT(d.fall_all,
                *std::min_element(d.fall.begin(), d.fall.end()));
      // ...while the series pull-up gives no such speed-up on rising.
      EXPECT_GT(d.rise_all, 0.5 * *std::min_element(d.rise.begin(),
                                                    d.rise.end()));
    } else {
      // Dual: the parallel pull-up speed-up shows on rising.
      EXPECT_LT(d.rise_all,
                *std::min_element(d.rise.begin(), d.rise.end()));
    }
  }
}

TEST(GateDelay, ThrowsWhenNoCrossingExists) {
  const GateModeTables tables(GateParams::nor3_reference());
  // No input ever switches: the output sits at its steady level forever.
  EXPECT_THROW(gate_output_crossing(tables, 0u, 0.0, {}, /*rising=*/false),
               ConvergenceError);
}

// Round-trip: delays generated by a known cell must be recovered by the
// fit closely enough that the refitted model reproduces them.
TEST(GateParametrize, RecoversReferenceCellDelays) {
  const GateParams truth = GateParams::nor3_reference();
  GateParams raw = truth;
  raw.delta_min = 0.0;
  const GateModeTables tables(raw);
  const auto d = gate_characteristic_delays(tables);

  GateTargets targets;
  targets.fall = d.fall;
  targets.rise = d.rise;
  targets.fall_all = d.fall_all;
  targets.rise_all = d.rise_all;
  for (double& v : targets.fall) v += truth.delta_min;
  for (double& v : targets.rise) v += truth.delta_min;
  targets.fall_all += truth.delta_min;
  targets.rise_all += truth.delta_min;

  GateFitOptions opts;
  opts.vdd = truth.vdd;
  opts.forced_delta_min = truth.delta_min;
  opts.nelder_mead_evaluations = 2000;
  const auto fit = fit_gate_params(GateTopology::kNorLike, targets, opts);

  EXPECT_EQ(fit.params.n_inputs(), 3);
  EXPECT_DOUBLE_EQ(fit.params.delta_min, truth.delta_min);
  // Achieved delays within 5% of every target.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(fit.achieved.fall[i], targets.fall[i],
                0.05 * targets.fall[i]);
    EXPECT_NEAR(fit.achieved.rise[i], targets.rise[i],
                0.05 * targets.rise[i]);
  }
  EXPECT_NEAR(fit.achieved.fall_all, targets.fall_all,
              0.05 * targets.fall_all);
  EXPECT_NEAR(fit.achieved.rise_all, targets.rise_all,
              0.05 * targets.rise_all);
}

TEST(GateParametrize, RejectsBadTargets) {
  GateTargets t;
  t.fall = {30e-12, 31e-12};
  t.rise = {40e-12};
  EXPECT_THROW(fit_gate_params(GateTopology::kNorLike, t), ConfigError);
  t.rise = {40e-12, -1e-12};
  t.fall_all = 20e-12;
  t.rise_all = 40e-12;
  EXPECT_THROW(fit_gate_params(GateTopology::kNorLike, t), ConfigError);
}

}  // namespace
}  // namespace charlie::core
