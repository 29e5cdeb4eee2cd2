#include "core/gate_modes.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/gate_mode_tables.hpp"
#include "core/modes.hpp"
#include "util/error.hpp"

namespace charlie::core {
namespace {

TEST(GateState, BitHelpers) {
  GateState s = 0;
  s = gate_state_with(s, 0, true);
  s = gate_state_with(s, 2, true);
  EXPECT_TRUE(gate_state_input(s, 0));
  EXPECT_FALSE(gate_state_input(s, 1));
  EXPECT_TRUE(gate_state_input(s, 2));
  s = gate_state_with(s, 0, false);
  EXPECT_FALSE(gate_state_input(s, 0));
  EXPECT_EQ(gate_state_name(0b101u, 3), "(1,0,1)");
  EXPECT_EQ(gate_n_states(3), 8u);
}

TEST(GateModes, OutputLogic) {
  // NOR-like: high iff all inputs low.
  EXPECT_TRUE(gate_mode_output(GateTopology::kNorLike, 0b000, 3));
  EXPECT_FALSE(gate_mode_output(GateTopology::kNorLike, 0b001, 3));
  EXPECT_FALSE(gate_mode_output(GateTopology::kNorLike, 0b111, 3));
  // NAND-like: low iff all inputs high.
  EXPECT_TRUE(gate_mode_output(GateTopology::kNandLike, 0b000, 3));
  EXPECT_TRUE(gate_mode_output(GateTopology::kNandLike, 0b011, 3));
  EXPECT_FALSE(gate_mode_output(GateTopology::kNandLike, 0b111, 3));
}

// The generalized construction must reproduce the paper's NOR2 modes
// bit-for-bit (core::mode_ode delegates here; this guards the equivalence
// from the other side).
TEST(GateModes, Nor2BitIdenticalToPaperModes) {
  const NorParams nor = NorParams::paper_table1();
  const GateParams gate = GateParams::from_nor(nor);
  for (Mode m : kAllModes) {
    const GateState s = gate_state_from_mode(m);
    const auto general = gate_mode_ode(gate, s);
    const auto paper = mode_ode(m, nor);
    EXPECT_EQ(general.a().a, paper.a().a) << mode_name(m);
    EXPECT_EQ(general.a().b, paper.a().b) << mode_name(m);
    EXPECT_EQ(general.a().c, paper.a().c) << mode_name(m);
    EXPECT_EQ(general.a().d, paper.a().d) << mode_name(m);
    EXPECT_EQ(general.g().x, paper.g().x) << mode_name(m);
    EXPECT_EQ(general.g().y, paper.g().y) << mode_name(m);
    const auto ss_general = gate_mode_steady_state(gate, s, 0.31);
    const auto ss_paper = mode_steady_state(m, nor, 0.31);
    EXPECT_EQ(ss_general.x, ss_paper.x) << mode_name(m);
    EXPECT_EQ(ss_general.y, ss_paper.y) << mode_name(m);
  }
}

// NOR3 mode (0,1,0): the stack is cut at T2, the link (T3, input C low)
// drains V_N into O, and only input B's nMOS pulls the output down.
TEST(GateModes, Nor3System010MatchesHandDerivation) {
  const GateParams p = GateParams::nor3_reference();
  const auto sys = gate_mode_ode(p, 0b010);
  const double vn = 0.7;
  const double vo = 0.3;
  const ode::Vec2 d = sys.derivative({vn, vo});
  const double r3 = p.r_series[2];
  EXPECT_NEAR(d.x, -(vn - vo) / (r3 * p.c_int), 1.0);
  EXPECT_NEAR(d.y,
              ((vn - vo) / r3 - vo / p.r_parallel[1]) / p.c_out, 1.0);
}

// NOR3 mode (0,0,0): full series chain conducts; the lumped sub-chain
// R1 + R2 charges V_N from VDD.
TEST(GateModes, Nor3System000LumpsTheSubChain) {
  const GateParams p = GateParams::nor3_reference();
  const auto sys = gate_mode_ode(p, 0b000);
  const double vn = 0.2;
  const double vo = 0.1;
  const ode::Vec2 d = sys.derivative({vn, vo});
  const double r12 = p.r_series[0] + p.r_series[1];
  const double r3 = p.r_series[2];
  EXPECT_NEAR(d.x, ((p.vdd - vn) / r12 - (vn - vo) / r3) / p.c_int, 1.0);
  EXPECT_NEAR(d.y, (vn - vo) / (r3 * p.c_out), 1.0);
}

// NAND3 mode (1,1,1): full pull-down; V_M drains through the lumped lower
// chain and couples to O through T_A.
TEST(GateModes, Nand3System111MatchesHandDerivation) {
  const GateParams p = GateParams::nand3_reference();
  const auto sys = gate_mode_ode(p, 0b111);
  const double vm = 0.5;
  const double vo = 0.6;
  const ode::Vec2 d = sys.derivative({vm, vo});
  const double ra = p.r_series[0];
  const double rbc = p.r_series[1] + p.r_series[2];
  EXPECT_NEAR(d.x, ((vo - vm) / ra - vm / rbc) / p.c_int, 1.0);
  EXPECT_NEAR(d.y, -(vo - vm) / (ra * p.c_out), 1.0);
}

// NAND3 mode (0,0,0): the stack is fully isolated (V_M frozen) while the
// three parallel pMOS charge the output -- the singular-with-source case
// the generalized tables must handle.
TEST(GateModes, Nand3FrozenModeHasSourceTerm) {
  const GateParams p = GateParams::nand3_reference();
  const auto sys = gate_mode_ode(p, 0b000);
  EXPECT_FALSE(sys.has_equilibrium());
  const ode::Vec2 d = sys.derivative({0.3, 0.0});
  EXPECT_DOUBLE_EQ(d.x, 0.0);  // frozen
  double g_up = 0.0;
  for (double r : p.r_parallel) g_up += 1.0 / r;
  EXPECT_NEAR(d.y, p.vdd * g_up / p.c_out, 1e-3);
  EXPECT_TRUE(gate_mode_internal_frozen(p, 0b000));
  EXPECT_FALSE(gate_mode_internal_frozen(p, 0b111));
  EXPECT_FALSE(gate_mode_internal_frozen(p, 0b001));
}

TEST(GateModes, SteadyStatesAreEquilibria) {
  for (const GateParams& p :
       {GateParams::nor3_reference(), GateParams::nand2_reference(),
        GateParams::nand3_reference()}) {
    for (GateState s = 0; s < gate_n_states(p.n_inputs()); ++s) {
      const auto sys = gate_mode_ode(p, s);
      const auto ss = gate_mode_steady_state(p, s, 0.5);
      const ode::Vec2 d = sys.derivative(ss);
      if (gate_mode_internal_frozen(p, s)) {
        EXPECT_DOUBLE_EQ(d.x, 0.0) << gate_state_name(s, p.n_inputs());
      } else {
        EXPECT_NEAR(d.x, 0.0, 1e-3) << gate_state_name(s, p.n_inputs());
      }
      EXPECT_NEAR(d.y, 0.0, 1e-3) << gate_state_name(s, p.n_inputs());
    }
  }
}

TEST(GateParamsTest, ValidationRejectsBadValues) {
  GateParams p = GateParams::nor3_reference();
  p.r_series[1] = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = GateParams::nor3_reference();
  p.r_parallel.pop_back();
  EXPECT_THROW(p.validate(), ConfigError);
  for (double bad : {-1e-12, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    p = GateParams::nor3_reference();
    p.delta_min = bad;
    EXPECT_THROW(p.validate(), ConfigError) << bad;
  }
  for (double bad : {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    p = GateParams::nand3_reference();
    p.vdd = bad;
    EXPECT_THROW(p.validate(), ConfigError) << bad;
    p = GateParams::nand3_reference();
    p.r_parallel[2] = bad;
    EXPECT_THROW(p.validate(), ConfigError) << bad;
    p = GateParams::nand3_reference();
    p.c_int = bad;
    EXPECT_THROW(p.validate(), ConfigError) << bad;
  }
  p = GateParams::nand2_reference();
  p.r_series = {1e3};
  p.r_parallel = {1e3};
  EXPECT_THROW(p.validate(), ConfigError);  // arity < 2
  EXPECT_NO_THROW(GateParams::nand3_reference().validate());
}

TEST(GateParamsTest, ToStringNamesTopologyAndArity) {
  EXPECT_NE(GateParams::nor3_reference().to_string().find("Nor3Params"),
            std::string::npos);
  EXPECT_NE(GateParams::nand2_reference().to_string().find("Nand2Params"),
            std::string::npos);
}

// The scalar two-exponential basis must reproduce the full trajectory for
// every mode of every reference cell -- including the NAND frozen modes
// whose particular solution does not come from a matrix inversion.
TEST(GateModeTables, ScalarBasisReproducesTrajectoryAllStates) {
  for (const GateParams& p :
       {GateParams::from_nor(NorParams::paper_table1()),
        GateParams::nor3_reference(), GateParams::nand2_reference(),
        GateParams::nand3_reference()}) {
    const GateModeTables tables(p);
    const ode::Vec2 x_ref{0.31, 0.67};
    for (GateState s = 0; s < tables.n_states(); ++s) {
      const ModeTable& t = tables.state_table(s);
      ASSERT_TRUE(t.scalar_valid) << gate_state_name(s, p.n_inputs());
      const ode::Vec2 dev = x_ref - t.xp;
      double a1 = t.p1c * dev.x + t.p1d * dev.y;
      double a2 = dev.y - a1;
      double d = t.d;
      if (t.fold1) {
        d += a1;
        a1 = 0.0;
      }
      if (t.fold2) {
        d += a2;
        a2 = 0.0;
      }
      for (double tau : {0.0, 5e-12, 20e-12, 100e-12, 1e-9}) {
        const double scalar =
            d + a1 * std::exp(t.l1 * tau) + a2 * std::exp(t.l2 * tau);
        const double exact = t.ode.state_at(tau, x_ref).y;
        EXPECT_NEAR(scalar, exact, 1e-12 * p.vdd)
            << gate_state_name(s, p.n_inputs()) << " tau=" << tau;
      }
    }
  }
}

// Same for the full spectral form of the state evolution.
TEST(GateModeTables, SpectralFormMatchesMatrixExponential) {
  const GateParams p = GateParams::nand3_reference();
  const GateModeTables tables(p);
  const ode::Vec2 x_ref{0.11, 0.73};
  for (GateState s = 0; s < tables.n_states(); ++s) {
    const ModeTable& t = tables.state_table(s);
    ASSERT_TRUE(t.scalar_valid) << gate_state_name(s, 3);
    for (double tau : {1e-12, 30e-12, 400e-12}) {
      const ode::Vec2 dev = x_ref - t.xp;
      const ode::Vec2 spectral = t.xp +
                                 std::exp(t.l1 * tau) * (t.s1 * dev) +
                                 std::exp(t.l2 * tau) * (t.s2 * dev);
      const ode::Vec2 exact = t.ode.state_at(tau, x_ref);
      EXPECT_NEAR(spectral.x, exact.x, 1e-12) << gate_state_name(s, 3);
      EXPECT_NEAR(spectral.y, exact.y, 1e-12) << gate_state_name(s, 3);
    }
  }
}

TEST(GateModeTables, ValidatesOnConstruction) {
  for (double bad : {0.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    GateParams p = GateParams::nor3_reference();
    p.c_out = bad;
    EXPECT_THROW(GateModeTables tables(p), ConfigError) << bad;
    EXPECT_THROW(GateModeTables::make(p), ConfigError) << bad;
    p = GateParams::nand2_reference();
    p.r_series[1] = bad;
    EXPECT_THROW(GateModeTables::make(p), ConfigError) << bad;
  }
  GateParams p = GateParams::nor3_reference();
  p.delta_min = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(GateModeTables::make(p), ConfigError);
}

}  // namespace
}  // namespace charlie::core
