#include "sim/circuit.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sim/hybrid_gate_channel.hpp"
#include "sim/inertial.hpp"
#include "sim/pure_delay.hpp"
#include "util/error.hpp"

namespace charlie::sim {
namespace {

TEST(GateEval, TruthTables) {
  const bool f = false;
  const bool t = true;
  {
    const bool in[] = {f};
    EXPECT_FALSE(eval_gate(GateKind::kBuf, in));
    EXPECT_TRUE(eval_gate(GateKind::kInv, in));
  }
  {
    const bool in[] = {t, f};
    EXPECT_FALSE(eval_gate(GateKind::kAnd2, in));
    EXPECT_TRUE(eval_gate(GateKind::kOr2, in));
    EXPECT_TRUE(eval_gate(GateKind::kNand2, in));
    EXPECT_FALSE(eval_gate(GateKind::kNor2, in));
    EXPECT_TRUE(eval_gate(GateKind::kXor2, in));
  }
  {
    const bool in[] = {f, f};
    EXPECT_TRUE(eval_gate(GateKind::kNor2, in));
    EXPECT_FALSE(eval_gate(GateKind::kXor2, in));
  }
}

TEST(Circuit, SingleInverter) {
  Circuit c;
  const auto in = c.add_input("in");
  const auto out = c.add_gate(GateKind::kInv, "out", {in},
                              std::make_unique<PureDelayChannel>(10e-12));
  const waveform::DigitalTrace stim(false, {1e-9, 2e-9});
  const auto result = c.simulate({stim}, 0.0, 3e-9);
  ASSERT_TRUE(result.ok()) << result.diagnostics.summary();
  const auto& trace = result.trace(out);
  EXPECT_TRUE(trace.initial_value());
  ASSERT_EQ(trace.n_transitions(), 2u);
  EXPECT_NEAR(trace.transitions()[0], 1e-9 + 10e-12, 1e-15);
  EXPECT_FALSE(trace.is_rising(0));
}

TEST(Circuit, InverterChainAccumulatesDelay) {
  Circuit c;
  const auto in = c.add_input("in");
  auto prev = in;
  for (int i = 0; i < 4; ++i) {
    prev = c.add_gate(GateKind::kInv, "n" + std::to_string(i), {prev},
                      std::make_unique<PureDelayChannel>(5e-12));
  }
  const waveform::DigitalTrace stim(false, {1e-9});
  const auto result = c.simulate({stim}, 0.0, 2e-9);
  ASSERT_TRUE(result.ok()) << result.diagnostics.summary();
  const auto& out = result.trace(prev);
  ASSERT_EQ(out.n_transitions(), 1u);
  EXPECT_NEAR(out.transitions()[0], 1e-9 + 4 * 5e-12, 1e-15);
  // Even number of inversions: same polarity as the input.
  EXPECT_TRUE(out.is_rising(0));
}

TEST(Circuit, SteadyStateSettlesThroughLogic) {
  // in=1 feeding INV -> 0 -> NOR(0, in2=0) -> 1 at t=0.
  Circuit c;
  const auto in1 = c.add_input("in1");
  const auto in2 = c.add_input("in2");
  const auto inv = c.add_gate(GateKind::kInv, "inv", {in1},
                              std::make_unique<PureDelayChannel>(5e-12));
  const auto nor =
      c.add_gate(GateKind::kNor2, "nor", {inv, in2},
                 std::make_unique<InertialChannel>(7e-12, 7e-12));
  const waveform::DigitalTrace s1(true, {});
  const waveform::DigitalTrace s2(false, {});
  const auto result = c.simulate({s1, s2}, 0.0, 1e-9);
  ASSERT_TRUE(result.ok()) << result.diagnostics.summary();
  EXPECT_FALSE(result.trace(inv).initial_value());
  EXPECT_TRUE(result.trace(nor).initial_value());
  EXPECT_EQ(result.trace(nor).n_transitions(), 0u);
}

TEST(Circuit, ReconvergentFanoutGlitch) {
  // Classic glitch generator: in -> INV -> AND(in, inv(in)).
  // A rising input makes the AND see (1,1) briefly -- for the inverter
  // delay -- so a pure-delay AND emits a glitch; an inertial AND with a
  // larger delay does not.
  auto build = [](std::unique_ptr<SisChannel> and_channel) {
    auto c = std::make_unique<Circuit>();
    const auto in = c->add_input("in");
    const auto inv = c->add_gate(GateKind::kInv, "inv", {in},
                                 std::make_unique<PureDelayChannel>(20e-12));
    c->add_gate(GateKind::kAnd2, "out", {in, inv}, std::move(and_channel));
    return c;
  };
  const waveform::DigitalTrace stim(false, {1e-9});

  auto c_pure = build(std::make_unique<PureDelayChannel>(5e-12));
  const auto r_pure = c_pure->simulate({stim}, 0.0, 2e-9);
  ASSERT_TRUE(r_pure.ok()) << r_pure.diagnostics.summary();
  EXPECT_EQ(r_pure.trace(c_pure->find_net("out")).n_transitions(), 2u);

  auto c_inertial = build(std::make_unique<InertialChannel>(30e-12, 30e-12));
  const auto r_inertial = c_inertial->simulate({stim}, 0.0, 2e-9);
  ASSERT_TRUE(r_inertial.ok()) << r_inertial.diagnostics.summary();
  EXPECT_EQ(r_inertial.trace(c_inertial->find_net("out")).n_transitions(),
            0u);
}

TEST(Circuit, MisAwareNorInsideCircuit) {
  const auto params = core::GateParams::nor2_reference();
  Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto out = c.add_mis_gate(GateKind::kNor2, "out", {a, b},
                                  std::make_unique<HybridGateChannel>(params));
  // Simultaneous rising inputs: Charlie speed-up vs. lone input.
  const waveform::DigitalTrace both(false, {1e-9});
  const auto r_both = c.simulate({both, both}, 0.0, 2e-9);
  ASSERT_TRUE(r_both.ok()) << r_both.diagnostics.summary();
  const double t_both = r_both.trace(out).transitions().at(0);

  Circuit c2;
  const auto a2 = c2.add_input("a");
  const auto b2 = c2.add_input("b");
  const auto out2 =
      c2.add_mis_gate(GateKind::kNor2, "out", {a2, b2},
                      std::make_unique<HybridGateChannel>(params));
  const waveform::DigitalTrace lone(false, {1e-9});
  const waveform::DigitalTrace quiet(false, {});
  const auto r_lone = c2.simulate({lone, quiet}, 0.0, 2e-9);
  ASSERT_TRUE(r_lone.ok()) << r_lone.diagnostics.summary();
  const double t_lone = r_lone.trace(out2).transitions().at(0);
  EXPECT_LT(t_both, t_lone - 5e-12);
}

TEST(Circuit, TwoStageNorChain) {
  // NOR(a,b) -> NOR(x, c): event propagation across MIS-aware stages.
  const auto params = core::GateParams::nor2_reference();
  Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto cc = c.add_input("c");
  const auto x = c.add_mis_gate(GateKind::kNor2, "x", {a, b},
                                std::make_unique<HybridGateChannel>(params));
  const auto y = c.add_mis_gate(GateKind::kNor2, "y", {x, cc},
                                std::make_unique<HybridGateChannel>(params));
  // a=b=0 initially -> x=1 -> y=0 (c=0). A rises: x falls, y rises.
  const waveform::DigitalTrace sa(false, {1e-9});
  const waveform::DigitalTrace quiet(false, {});
  const auto r = c.simulate({sa, quiet, quiet}, 0.0, 3e-9);
  ASSERT_TRUE(r.ok()) << r.diagnostics.summary();
  ASSERT_EQ(r.trace(x).n_transitions(), 1u);
  ASSERT_EQ(r.trace(y).n_transitions(), 1u);
  EXPECT_FALSE(r.trace(x).is_rising(0));
  EXPECT_TRUE(r.trace(y).is_rising(0));
  EXPECT_GT(r.trace(y).transitions()[0], r.trace(x).transitions()[0]);
}

TEST(Circuit, WindowBoundarySemantics) {
  // The event window is (t_begin, t_end]: a stimulus transition at exactly
  // t_begin is folded into the steady-state initialization (value_at
  // includes it), not replayed as an event.
  Circuit c;
  const auto in = c.add_input("in");
  const auto out = c.add_gate(GateKind::kInv, "out", {in},
                              std::make_unique<PureDelayChannel>(10e-12));
  const waveform::DigitalTrace stim(false, {1e-9, 2e-9});
  const auto result = c.simulate({stim}, 1e-9, 3e-9);
  ASSERT_TRUE(result.ok()) << result.diagnostics.summary();
  // The rising edge at exactly t_begin = 1 ns is initial state: input
  // starts high, inverter starts low, and no transition is recorded for it.
  EXPECT_TRUE(result.trace(in).initial_value());
  EXPECT_EQ(result.trace(in).n_transitions(), 1u);  // only the 2 ns edge
  EXPECT_FALSE(result.trace(out).initial_value());
  ASSERT_EQ(result.trace(out).n_transitions(), 1u);
  EXPECT_NEAR(result.trace(out).transitions()[0], 2e-9 + 10e-12, 1e-15);

  // A transition at exactly t_end is still an event; its delayed gate
  // response past t_end is dropped.
  Circuit c2;
  const auto in2 = c2.add_input("in");
  c2.add_gate(GateKind::kInv, "out", {in2},
              std::make_unique<PureDelayChannel>(10e-12));
  const auto r2 = c2.simulate({stim}, 0.0, 2e-9);
  ASSERT_TRUE(r2.ok()) << r2.diagnostics.summary();
  EXPECT_EQ(r2.trace(in2).n_transitions(), 2u);
  EXPECT_EQ(r2.trace(c2.find_net("out")).n_transitions(), 1u);
}

TEST(Circuit, ValidationErrors) {
  Circuit c;
  const auto in = c.add_input("in");
  EXPECT_THROW(c.add_input("in"), ConfigError);  // duplicate name
  EXPECT_THROW(c.find_net("nope"), ConfigError);
  // Wrong stimulus count.
  c.add_gate(GateKind::kInv, "out", {in},
             std::make_unique<PureDelayChannel>(1e-12));
  EXPECT_THROW(c.simulate({}, 0.0, 1e-9), AssertionError);
}

}  // namespace
}  // namespace charlie::sim
