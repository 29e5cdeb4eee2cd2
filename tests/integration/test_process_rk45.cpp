// Off-nominal validation of the process-point pipeline against RK45: the
// mode ODEs derived at a process corner stay consistent with their closed
// forms away from nominal, and the exactly re-derived tables reproduce the
// RK45 threshold-crossing times at the level the simulator actually
// consumes them (the two-exponential crossing solver).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/gate_mode_tables.hpp"
#include "core/gate_modes.hpp"
#include "core/gate_params.hpp"
#include "core/process_point.hpp"
#include "ode/rk45.hpp"
#include "sim/two_exp_crossing.hpp"

namespace charlie {
namespace {

using core::GateModeTables;
using core::GateParams;
using core::GateState;
using core::ProcessPoint;

// Off-nominal interior points: a slow die, a fast die, and a skewed
// one with the axes pulling in opposite directions.
std::vector<ProcessPoint> off_nominal_points() {
  ProcessPoint slow;
  slow.vdd_scale = 0.937;
  slow.vth_shift = 0.021;
  slow.drive_scale = 0.915;
  ProcessPoint fast;
  fast.vdd_scale = 1.063;
  fast.vth_shift = -0.017;
  fast.drive_scale = 1.088;
  ProcessPoint skew;
  skew.vdd_scale = 1.029;
  skew.vth_shift = 0.033;
  skew.drive_scale = 0.942;
  return {slow, fast, skew};
}

ode::Vec2 rk45_state(const ode::AffineOde2& sys, const ode::Vec2& x0,
                     double t) {
  const ode::OdeRhs rhs = [&](double, std::span<const double> x,
                              std::span<double> dx) {
    const ode::Vec2 d = sys.derivative({x[0], x[1]});
    dx[0] = d.x;
    dx[1] = d.y;
  };
  const double x0_arr[] = {x0.x, x0.y};
  ode::Rk45Options opts;
  opts.rtol = 1e-11;
  opts.atol = 1e-14;
  const auto r = ode::integrate_rk45(rhs, x0_arr, 0.0, t, opts);
  return {r.x_final[0], r.x_final[1]};
}

// The rest -> active transition that swings the output through vth: a NOR
// rests all-low (output high) and falls when one input rises; a NAND rests
// all-high (output low) and rises when one input drops.
struct Transition {
  GateState rest;
  GateState active;
};

Transition output_swing(const GateParams& p) {
  const GateState all = core::gate_n_states(p.n_inputs()) - 1;
  if (p.topology == core::GateTopology::kNorLike) {
    return {0u, 1u};
  }
  return {all, core::gate_state_with(all, 0, false)};
}

// Crossing offset of the active mode entered at x_ref, computed exactly the
// way the event loop does: scalar two-exponential expansion + solver.
double crossing_tau(const GateModeTables& tabs, GateState active,
                    const ode::Vec2& x_ref) {
  const auto vo = sim::two_exp_expand(tabs.state_table(active), x_ref);
  EXPECT_TRUE(vo.valid);
  const auto c =
      sim::two_exp_next_crossing(vo, tabs.vth(), 0.0, tabs.horizon());
  EXPECT_TRUE(c.has_value());
  return c ? c->tau : 0.0;
}

TEST(ProcessRk45, DerivedModeOdesMatchRk45OffNominal) {
  // GateParams::derive_for rescales resistances, supply, and delta_min; the
  // mode ODEs built from the derived set must still agree with their closed
  // forms in every state, at every point.
  for (const GateParams& nominal :
       {GateParams::nor2_reference(), GateParams::nand3_reference()}) {
    for (const ProcessPoint& p : off_nominal_points()) {
      const GateParams derived = nominal.derive_for(p);
      const GateState n_states = core::gate_n_states(derived.n_inputs());
      for (GateState s = 0; s < n_states; ++s) {
        const auto sys = core::gate_mode_ode(derived, s);
        const ode::Vec2 x0{0.8 * derived.vdd, 0.45 * derived.vdd};
        for (double t : {5e-12, 30e-12, 120e-12}) {
          const ode::Vec2 exact = sys.state_at(t, x0);
          const ode::Vec2 numeric = rk45_state(sys, x0, t);
          EXPECT_NEAR(exact.x, numeric.x, 1e-8)
              << core::gate_state_name(s, derived.n_inputs()) << " t=" << t;
          EXPECT_NEAR(exact.y, numeric.y, 1e-8)
              << core::gate_state_name(s, derived.n_inputs()) << " t=" << t;
        }
      }
    }
  }
}

TEST(ProcessRk45, ExactTablesReproduceRk45CrossingsOffNominal) {
  // rederive_at + the two-exponential solver against root-finding on RK45
  // trajectories of the derived ODE: the analytic pipeline carries no
  // process-dependent approximation, so agreement is at solver tolerance.
  for (const GateParams& nominal :
       {GateParams::nor2_reference(), GateParams::nand3_reference()}) {
    for (const ProcessPoint& p : off_nominal_points()) {
      GateModeTables tabs(nominal);
      tabs.rederive_at(nominal, p);
      const Transition tr = output_swing(nominal);
      const ode::Vec2 x_ref = tabs.state_table(tr.rest).steady;
      const double tau = crossing_tau(tabs, tr.active, x_ref);

      const GateParams derived = nominal.derive_for(p);
      const auto sys = core::gate_mode_ode(derived, tr.active);
      const double vth = tabs.vth();
      const bool falling = rk45_state(sys, x_ref, 1e-15).y > vth;
      double lo = 1e-15;
      double hi = tabs.horizon();
      ASSERT_GT(hi, lo);
      for (int i = 0; i < 60; ++i) {
        const double mid = 0.5 * (lo + hi);
        const bool above = rk45_state(sys, x_ref, mid).y > vth;
        if (above == falling) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      const double tau_rk = 0.5 * (lo + hi);
      EXPECT_NEAR(tau, tau_rk, 1e-13) << "vdd_scale=" << p.vdd_scale;
    }
  }
}

TEST(ProcessRk45, CrossingTimesOrderPhysically) {
  // Slow die crosses later than nominal, fast die earlier -- through the
  // full derive -> expand -> solve pipeline.
  const GateParams nominal = GateParams::nor2_reference();
  const Transition tr = output_swing(nominal);
  const auto points = off_nominal_points();
  auto tau_at = [&](const ProcessPoint& p) {
    GateModeTables tabs(nominal);
    tabs.rederive_at(nominal, p);
    return crossing_tau(tabs, tr.active,
                        tabs.state_table(tr.rest).steady);
  };
  const double slow = tau_at(points[0]);
  const double fast = tau_at(points[1]);
  const double nom = tau_at(ProcessPoint::nominal());
  EXPECT_GT(slow, nom);
  EXPECT_LT(fast, nom);
}

}  // namespace
}  // namespace charlie
