// The interconnect collapse: moments of the discrete ladder, the Pade
// 2-state reduction, and its closed-form trajectories against RK45 -- both
// of the reduced system (exactness of the table machinery) and of the full
// N-state ladder (reduction quality).
#include "wire/wire_tables.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ode/rk45.hpp"
#include "util/error.hpp"
#include "wire/wire_params.hpp"

namespace charlie {
namespace {

// RK45 integration of the full N-state ladder with a constant rail drive.
std::vector<double> full_ladder_at(const wire::WireParams& p, double v_drive,
                                   std::vector<double> x0, double t) {
  const int n = p.n_sections;
  std::vector<double> r(static_cast<std::size_t>(n), p.r_total / n);
  std::vector<double> c(static_cast<std::size_t>(n), p.c_total / n);
  r[0] += p.r_drive;
  c[static_cast<std::size_t>(n - 1)] += p.c_load;
  const ode::OdeRhs rhs = [&](double, std::span<const double> x,
                              std::span<double> dx) {
    for (int i = 0; i < n; ++i) {
      const double v_left = i == 0 ? v_drive : x[i - 1];
      const double i_left = (v_left - x[i]) / r[static_cast<std::size_t>(i)];
      const double i_right =
          i == n - 1 ? 0.0
                     : (x[i] - x[i + 1]) / r[static_cast<std::size_t>(i + 1)];
      dx[i] = (i_left - i_right) / c[static_cast<std::size_t>(i)];
    }
  };
  ode::Rk45Options opts;
  opts.rtol = 1e-11;
  opts.atol = 1e-14;
  const auto res = ode::integrate_rk45(rhs, x0, 0.0, t, opts);
  return res.x_final;
}

TEST(WireMoments, FirstMomentIsTheElmoreDelay) {
  const wire::WireParams p = wire::WireParams::reference();
  const auto m = wire::wire_moments(p);
  EXPECT_NEAR(-m.m1, p.elmore_delay(), 1e-18 * p.elmore_delay() + 1e-30);
  EXPECT_GT(m.m2, 0.0);
}

TEST(WireMoments, MatchesClosedFormForOneSection) {
  // One section with r_drive and c_load: two caps, two resistors. Moments
  // by hand: m1 = -(R1 C1 + (R1+R2) C2), m2 = first-order voltages pushed
  // through once more.
  wire::WireParams p;
  p.r_total = 2e3;
  p.c_total = 1e-15;
  p.n_sections = 1;
  p.r_drive = 3e3;
  p.c_load = 0.5e-15;
  // n_sections = 1 puts the whole c_total and c_load on the single tap:
  // one RC with R = r_drive + r_total, C = c_total + c_load.
  const double rr = p.r_drive + p.r_total;
  const double cc = p.c_total + p.c_load;
  const auto m = wire::wire_moments(p);
  EXPECT_NEAR(m.m1, -rr * cc, 1e-12 * rr * cc);
  // Single pole: m2 = m1^2 exactly.
  EXPECT_NEAR(m.m2, rr * cc * rr * cc, 1e-12 * rr * cc * rr * cc);
}

TEST(WireMoments, DistributedLimitApproachesTheoreticalCoefficients) {
  // Pure line (no r_drive/c_load), N -> inf: H(s) = 1/cosh(sqrt(s R C))
  // gives b1 = RC/2 and b2 = (RC)^2/24.
  wire::WireParams p;
  p.r_total = 10e3;
  p.c_total = 2e-15;
  p.n_sections = 64;
  p.r_drive = 0.0;
  p.c_load = 0.0;
  const wire::WireModeTables tables(p);
  const double rc = p.r_total * p.c_total;
  EXPECT_NEAR(tables.b1(), 0.5 * rc, 0.01 * rc);
  EXPECT_NEAR(tables.b2(), rc * rc / 24.0, 0.002 * rc * rc);
}

TEST(WireModeTables, BothDriveStatesAreStableWithScalarExpansion) {
  const wire::WireModeTables tables(wire::WireParams::reference());
  for (bool high : {false, true}) {
    const auto& t = tables.drive_table(high);
    EXPECT_TRUE(t.scalar_valid);
    EXPECT_TRUE(t.scalar_valid);
    EXPECT_LT(t.l1, 0.0);
    EXPECT_LT(t.l2, 0.0);
    // DC gain 1: the equilibrium output voltage is the drive rail.
    EXPECT_NEAR(t.steady.y, high ? tables.params().vdd : 0.0, 1e-12);
    EXPECT_NEAR(t.xp.y, t.steady.y, 1e-9);
  }
  EXPECT_GT(tables.horizon(), 10.0 * tables.elmore_delay());
}

TEST(WireModeTables, ClosedFormMatchesRk45OfTheReducedSystem) {
  // The spectral/scalar forms must reproduce the reduced ODE exactly (the
  // same guarantee the gate tables carry, same tolerance regime).
  const wire::WireModeTables tables(wire::WireParams::reference());
  for (bool high : {false, true}) {
    const auto& t = tables.drive_table(high);
    const ode::Vec2 x0{0.1, 0.37};  // generic interior state
    const ode::OdeRhs rhs = [&](double, std::span<const double> x,
                                std::span<double> dx) {
      const ode::Vec2 d = t.ode.derivative({x[0], x[1]});
      dx[0] = d.x;
      dx[1] = d.y;
    };
    ode::Rk45Options opts;
    opts.rtol = 1e-11;
    opts.atol = 1e-14;
    for (double at : {5e-12, 25e-12, 80e-12, 300e-12}) {
      const double x0_arr[] = {x0.x, x0.y};
      const auto numeric = ode::integrate_rk45(rhs, x0_arr, 0.0, at, opts);
      const ode::Vec2 dev = x0 - t.xp;
      const ode::Vec2 exact = t.xp + std::exp(t.l1 * at) * (t.s1 * dev) +
                              std::exp(t.l2 * at) * (t.s2 * dev);
      EXPECT_NEAR(exact.x, numeric.x_final[0], 1e-8) << "high=" << high;
      EXPECT_NEAR(exact.y, numeric.x_final[1], 1e-8) << "high=" << high;
    }
  }
}

TEST(WireModeTables, StepResponseTracksTheFullLadder) {
  // Reduction quality: the collapsed V_out step response stays within a few
  // percent of VDD of the full N-state ladder at all sampled times.
  for (int sections : {4, 8, 16}) {
    wire::WireParams p = wire::WireParams::reference();
    p.n_sections = sections;
    const wire::WireModeTables tables(p);
    const auto& t = tables.drive_table(true);
    const ode::Vec2 x0 = tables.drive_table(false).steady;  // line at GND
    std::vector<double> full0(static_cast<std::size_t>(sections), 0.0);
    for (double frac : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      const double at = frac * tables.elmore_delay();
      const ode::Vec2 dev = x0 - t.xp;
      const double reduced = (t.xp + std::exp(t.l1 * at) * (t.s1 * dev) +
                              std::exp(t.l2 * at) * (t.s2 * dev))
                                 .y;
      const double full =
          full_ladder_at(p, p.vdd, full0, at).back();
      EXPECT_NEAR(reduced, full, 0.04 * p.vdd)
          << "sections=" << sections << " t/elmore=" << frac;
    }
  }
}

TEST(WireModeTables, OneSectionCollapsesToASinglePole) {
  // One section is exactly one RC: m2 = m1^2, so b2 = 0 and the collapse
  // degenerates to V_out' = (V_drive - V_out)/b1.
  wire::WireParams p;
  p.r_total = 5e3;
  p.c_total = 2e-15;
  p.n_sections = 1;
  p.r_drive = 1e3;
  p.c_load = 1e-15;
  const wire::WireModeTables tables(p);
  EXPECT_EQ(tables.b2(), 0.0);
  const double rc = (p.r_drive + p.r_total) * (p.c_total + p.c_load);
  EXPECT_NEAR(tables.b1(), rc, 1e-12 * rc);
  const auto& t = tables.drive_table(true);
  ASSERT_TRUE(t.scalar_valid);
  // Rising step from GND: crossing V_th at RC ln 2.
  const ode::Vec2 x0{0.0, 0.0};
  const ode::Vec2 dev = x0 - t.xp;
  const double at = rc * std::log(2.0);
  const double v = (t.xp + std::exp(t.l1 * at) * (t.s1 * dev) +
                    std::exp(t.l2 * at) * (t.s2 * dev))
                       .y;
  EXPECT_NEAR(v, 0.5 * p.vdd, 1e-9);
}

TEST(WireParams, ValidationRejectsBadValues) {
  wire::WireParams p = wire::WireParams::reference();
  p.r_total = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = wire::WireParams::reference();
  p.c_total = -1e-15;
  EXPECT_THROW(p.validate(), ConfigError);
  p = wire::WireParams::reference();
  p.n_sections = 0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = wire::WireParams::reference();
  p.n_sections = wire::kMaxWireSections + 1;
  EXPECT_THROW(p.validate(), ConfigError);
  p = wire::WireParams::reference();
  p.r_drive = -1.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = wire::WireParams::reference();
  p.vdd = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
  EXPECT_NO_THROW(wire::WireParams::reference().validate());
}

TEST(WireParams, FingerprintDistinguishesGeometries) {
  const wire::WireParams a = wire::WireParams::reference();
  wire::WireParams b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.c_load = a.c_load + 1e-18;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace charlie
