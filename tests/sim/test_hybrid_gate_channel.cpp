#include "sim/hybrid_gate_channel.hpp"

#include <gtest/gtest.h>

#include <array>

#include "core/gate_delay.hpp"
#include "sim/circuit.hpp"
#include "sim/gate_models.hpp"
#include "sim/pure_delay.hpp"
#include "util/error.hpp"

namespace charlie::sim {
namespace {

using core::GateParams;
using core::GateTopology;

class Nor3ChannelFixture : public ::testing::Test {
 protected:
  const GateParams params_ = GateParams::nor3_reference();
};

TEST_F(Nor3ChannelFixture, InitialStateFollowsInputs) {
  HybridGateChannel ch(params_);
  EXPECT_EQ(ch.n_inputs(), 3);
  ch.initialize(0.0, std::array{false, false, false});
  EXPECT_TRUE(ch.initial_output());
  ch.initialize(0.0, std::array{false, true, false});
  EXPECT_FALSE(ch.initial_output());
  EXPECT_EQ(ch.input_state(), 0b010u);
}

TEST_F(Nor3ChannelFixture, SisDelayMatchesClosedFormCrossing) {
  // Event-driven channel vs the independent gate_output_crossing solver.
  GateParams raw = params_;
  raw.delta_min = 0.0;
  const auto tables = core::GateModeTables::make(raw);
  for (int port = 0; port < 3; ++port) {
    HybridGateChannel ch(tables);
    ch.initialize(0.0, std::array{false, false, false});
    ch.on_input(1e-9, port, true);
    const auto p = ch.pending();
    ASSERT_TRUE(p.has_value()) << "port=" << port;
    EXPECT_FALSE(p->value);
    const core::GateInputEvent ev{0.0, port, true};
    const double expected = core::gate_output_crossing(
        *tables, 0u, 0.0, std::span<const core::GateInputEvent>(&ev, 1),
        /*rising=*/false);
    EXPECT_NEAR(p->t - 1e-9, expected, 1e-14) << "port=" << port;
  }
}

TEST_F(Nor3ChannelFixture, MisSpeedupVisibleThroughChannel) {
  // Three simultaneous rising inputs produce an earlier output event than
  // any lone rising input -- the 3-strong Charlie effect.
  HybridGateChannel lone(params_);
  lone.initialize(0.0, std::array{false, false, false});
  lone.on_input(1e-9, 2, true);
  HybridGateChannel all(params_);
  all.initialize(0.0, std::array{false, false, false});
  for (int port = 0; port < 3; ++port) all.on_input(1e-9, port, true);
  ASSERT_TRUE(lone.pending().has_value());
  ASSERT_TRUE(all.pending().has_value());
  EXPECT_LT(all.pending()->t, lone.pending()->t - 5e-12);
}

TEST_F(Nor3ChannelFixture, GlitchCancellation) {
  HybridGateChannel ch(params_);
  ch.initialize(0.0, std::array{false, false, false});
  ch.on_input(1e-9, 1, true);
  ASSERT_TRUE(ch.pending().has_value());
  ch.on_input(1e-9 + 2e-12, 1, false);  // effective before the crossing
  EXPECT_FALSE(ch.pending().has_value());
}

TEST_F(Nor3ChannelFixture, ThirdInputKeepsOutputLowAfterRelease) {
  // A and B rise (output falls); C rises; releasing A and B must not
  // produce a rising event while C still holds the output low.
  HybridGateChannel ch(params_);
  ch.initialize(0.0, std::array{false, false, false});
  ch.on_input(1e-9, 0, true);
  ch.on_input(1e-9, 1, true);
  const auto fall = ch.pending();
  ASSERT_TRUE(fall.has_value());
  ch.on_fire(*fall);
  ch.on_input(2e-9, 2, true);
  ch.on_input(3e-9, 0, false);
  ch.on_input(3e-9, 1, false);
  EXPECT_FALSE(ch.pending().has_value());
  // Releasing C finally schedules the rising crossing.
  ch.on_input(4e-9, 2, false);
  const auto rise = ch.pending();
  ASSERT_TRUE(rise.has_value());
  EXPECT_TRUE(rise->value);
}

class Nand3ChannelFixture : public ::testing::Test {
 protected:
  const GateParams params_ = GateParams::nand3_reference();
};

TEST_F(Nand3ChannelFixture, OutputLogicAndEvents) {
  HybridGateChannel ch(params_);
  ch.initialize(0.0, std::array{true, true, false});
  EXPECT_TRUE(ch.initial_output());
  // C rises: the stack completes and the output falls.
  ch.on_input(1e-9, 2, true);
  const auto fall = ch.pending();
  ASSERT_TRUE(fall.has_value());
  EXPECT_FALSE(fall->value);
  ch.on_fire(*fall);
  // Any input falling lifts the output again.
  ch.on_input(2e-9, 0, false);
  const auto rise = ch.pending();
  ASSERT_TRUE(rise.has_value());
  EXPECT_TRUE(rise->value);
}

TEST_F(Nand3ChannelFixture, SisDelayMatchesClosedFormCrossing) {
  GateParams raw = params_;
  raw.delta_min = 0.0;
  const auto tables = core::GateModeTables::make(raw);
  const core::GateState all = 0b111;
  for (int port = 0; port < 3; ++port) {
    HybridGateChannel ch(tables);
    ch.initialize(0.0, std::array{true, true, true});
    ch.on_input(1e-9, port, false);
    const auto p = ch.pending();
    ASSERT_TRUE(p.has_value()) << "port=" << port;
    EXPECT_TRUE(p->value);
    const core::GateInputEvent ev{0.0, port, false};
    const double expected = core::gate_output_crossing(
        *tables, all, raw.worst_case_hold(),
        std::span<const core::GateInputEvent>(&ev, 1), /*rising=*/true);
    EXPECT_NEAR(p->t - 1e-9, expected, 1e-14) << "port=" << port;
  }
}

TEST_F(Nand3ChannelFixture, FrozenStackHoldsWorstCaseAtInit) {
  // All-low NAND3 isolates the stack; initialization must assume the
  // worst-case charged internal node (VDD), the dual of the NOR's GND.
  HybridGateChannel ch(params_);
  ch.initialize(0.0, std::array{false, false, false});
  EXPECT_DOUBLE_EQ(ch.state_at(0.0).x, params_.vdd);
  EXPECT_DOUBLE_EQ(ch.state_at(0.0).y, params_.vdd);
}

TEST(SisLogicGate, ZeroTimeLogicFiltersNonControllingEdges) {
  // NAND3 through a pure-delay SIS channel: edges that do not change the
  // boolean value must not reach the channel.
  auto gate = make_pure_gate(GateTopology::kNandLike, 3,
                             SisGateDelays{20e-12, 25e-12});
  gate->initialize(0.0, std::array{true, true, false});
  EXPECT_TRUE(gate->initial_output());
  gate->on_input(1e-9, 0, false);  // output stays high (C still low)
  EXPECT_FALSE(gate->pending().has_value());
  gate->on_input(2e-9, 0, true);
  gate->on_input(3e-9, 2, true);  // completes the stack: output falls
  const auto p = gate->pending();
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->value);
}

TEST(CircuitMultiInput, Nor3AndNand3GatesSimulate) {
  // NOR3 with a native hybrid channel driving a NAND3 SIS gate.
  Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto d = c.add_input("d");
  const auto nor_out = c.add_mis_gate(
      GateKind::kNor3, "nor3", {a, b, d},
      std::make_unique<HybridGateChannel>(GateParams::nor3_reference()));
  c.add_gate(GateKind::kNand3, "nand3", {a, b, nor_out},
             std::make_unique<PureDelayChannel>(10e-12));

  // All inputs low: NOR3 high, NAND3(0,0,1) high.
  waveform::DigitalTrace sa(false, {1e-9});
  waveform::DigitalTrace sb(false, {1e-9});
  waveform::DigitalTrace sd(false, {});
  const auto result = c.simulate({sa, sb, sd}, 0.0, 10e-9);
  ASSERT_TRUE(result.ok()) << result.diagnostics.summary();
  const auto& nor_trace = result.trace(nor_out);
  // a, b rising pulls the NOR3 low once.
  ASSERT_EQ(nor_trace.n_transitions(), 1u);
  EXPECT_FALSE(nor_trace.final_value());
  // NAND3 inputs (a, b, nor3): (1,1,1) while the NOR3 is still falling,
  // then (1,1,0) -- a pure-delay channel propagates the real glitch: one
  // falling edge, one rising edge, high again at the end.
  const auto& nand_trace = result.trace(c.find_net("nand3"));
  EXPECT_TRUE(nand_trace.initial_value());
  ASSERT_EQ(nand_trace.n_transitions(), 2u);
  EXPECT_FALSE(nand_trace.is_rising(0));
  EXPECT_TRUE(nand_trace.is_rising(1));
  EXPECT_LT(nand_trace.transitions()[0], nand_trace.transitions()[1]);
  EXPECT_TRUE(nand_trace.final_value());
}

TEST(CircuitMultiInput, MisGateArityMismatchFailsLoudly) {
  Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  EXPECT_THROW(
      c.add_mis_gate(GateKind::kNor3, "x", {a, b, a},
                     std::make_unique<HybridGateChannel>(
                         GateParams::nand2_reference())),
      AssertionError);
}

}  // namespace
}  // namespace charlie::sim
