// sim::CircuitBuilder semantics: netlist validation (unknown cell, arity
// mismatch, duplicate/undriven nets, cycles), topological instantiation
// order, and the guarantee that a hand-wired Circuit::add_mis_gate +
// HybridGateChannel circuit is bit-identical to the builder + CellLibrary
// path.
#include <gtest/gtest.h>

#include <memory>

#include "cell/cell_library.hpp"
#include "core/gate_params.hpp"
#include "sim/circuit.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace charlie {
namespace {

sim::CircuitBuilder reference_builder() {
  return sim::CircuitBuilder(cell::CellLibrary::reference());
}

TEST(CircuitBuilder, BuildsAValidatedCircuit) {
  const auto circuit = reference_builder().build_text(
      "input(a, b, c)\n"
      "NOR2(x, a, b)\n"
      "NAND3(y, x, b, c)\n"
      "INV(z, y)\n");
  EXPECT_EQ(circuit->n_inputs(), 3u);
  EXPECT_EQ(circuit->n_gates(), 3u);
  EXPECT_EQ(circuit->n_nets(), 6u);
  EXPECT_NO_THROW(circuit->find_net("z"));
}

TEST(CircuitBuilder, InstancesMayAppearInAnyOrder) {
  // z depends on y which depends on x; the netlist lists them backwards.
  const auto circuit = reference_builder().build_text(
      "input(a, b)\n"
      "INV(z, y)\n"
      "NAND2(y, x, b)\n"
      "NOR2(x, a, b)\n");
  EXPECT_EQ(circuit->n_gates(), 3u);
  // The circuit simulates correctly despite the declaration order.
  const waveform::DigitalTrace step(false, {1e-9});
  const waveform::DigitalTrace quiet(false, {});
  const auto result = circuit->simulate({step, quiet}, 0.0, 3e-9);
  ASSERT_TRUE(result.ok()) << result.diagnostics.summary();
  EXPECT_GE(result.n_events, 1);
}

TEST(CircuitBuilder, RejectsUnknownCell) {
  try {
    reference_builder().build_text("input(a)\nFROB(x, a)\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown cell"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(CircuitBuilder, RejectsArityMismatch) {
  try {
    reference_builder().build_text("input(a, b, c)\nNOR2(x, a, b, c)\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("takes 2 inputs, got 3"),
              std::string::npos);
  }
  EXPECT_THROW(reference_builder().build_text("input(a)\nNAND3(x, a)\n"),
               ConfigError);
}

TEST(CircuitBuilder, RejectsDuplicateNets) {
  // Two gates driving the same net.
  EXPECT_THROW(reference_builder().build_text(
                   "input(a, b)\nINV(x, a)\nINV(x, b)\n"),
               ConfigError);
  // A gate driving a primary input.
  EXPECT_THROW(
      reference_builder().build_text("input(a, b)\nINV(b, a)\n"),
      ConfigError);
  // The same primary input twice (caught by the parser for single
  // declarations; the builder re-checks for hand-built descs).
  cell::NetlistDesc desc;
  desc.inputs = {"a", "a"};
  EXPECT_THROW(reference_builder().build(desc), ConfigError);
}

TEST(CircuitBuilder, RejectsUndrivenNets) {
  try {
    reference_builder().build_text("input(a)\nNOR2(x, a, ghost)\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

TEST(CircuitBuilder, RejectsCombinationalCycles) {
  // x -> y -> x.
  try {
    reference_builder().build_text(
        "input(a)\n"
        "NOR2(x, a, y)\n"
        "NOR2(y, a, x)\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
  }
  // Self-loop.
  EXPECT_THROW(reference_builder().build_text("input(a)\nNAND2(x, a, x)\n"),
               ConfigError);
}

// --- hand-wired circuit vs builder bit-identity ----------------------------

TEST(CircuitBuilder, HandWiredMisGateIsBitIdenticalToBuilderPath) {
  const auto params =
      core::GateParams::from_nor(core::NorParams::paper_table1());

  // Hand-wired NOR2 chain with one private HybridGateChannel per gate.
  sim::Circuit old_circuit;
  {
    const auto a = old_circuit.add_input("a");
    const auto b = old_circuit.add_input("b");
    const auto x = old_circuit.add_mis_gate(
        sim::GateKind::kNor2, "x", {a, b},
        std::make_unique<sim::HybridGateChannel>(params));
    old_circuit.add_mis_gate(sim::GateKind::kNor2, "y", {x, b},
                             std::make_unique<sim::HybridGateChannel>(params));
  }

  // Builder API: the same topology from a netlist against the reference
  // library, whose NOR2 is GateParams::nor2_reference() ==
  // from_nor(paper_table1).
  const auto new_circuit = reference_builder().build_text(
      "input(a, b)\nNOR2(x, a, b)\nNOR2(y, x, b)\n");

  util::Rng rng(2024);
  waveform::TraceConfig config;
  config.mu = 140e-12;
  config.sigma = 70e-12;
  config.n_transitions = 200;
  const auto stimuli = waveform::generate_traces(config, 2, rng);
  const double t_end = 200 * 300e-12;

  const auto old_result = old_circuit.simulate(stimuli, 0.0, t_end);
  const auto new_result = new_circuit->simulate(stimuli, 0.0, t_end);
  ASSERT_TRUE(old_result.ok()) << old_result.diagnostics.summary();
  ASSERT_TRUE(new_result.ok()) << new_result.diagnostics.summary();

  ASSERT_EQ(old_result.n_events, new_result.n_events);
  for (const char* net : {"x", "y"}) {
    const auto& old_trace = old_result.trace(old_circuit.find_net(net));
    const auto& new_trace = new_result.trace(new_circuit->find_net(net));
    EXPECT_EQ(old_trace.initial_value(), new_trace.initial_value()) << net;
    // Bit-identical: the exact same crossing times, not just close ones.
    EXPECT_EQ(old_trace.transitions(), new_trace.transitions()) << net;
  }
}

}  // namespace
}  // namespace charlie
