// sim::CircuitBuilder semantics: netlist validation (unknown cell, arity
// mismatch, duplicate/undriven nets, cycles) and which error comes first,
// the topology's net ids and topological order against a string-keyed
// reference, and the guarantee that a hand-wired Circuit::add_mis_gate +
// HybridGateChannel circuit is bit-identical to the builder + CellLibrary
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "cell/netlist_gen.hpp"
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

// The message of the first ConfigError build() throws on `text`.
std::string first_build_error(const std::string& text) {
  try {
    reference_builder().build_text(text);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "no error";
}

TEST(CircuitBuilder, CompetingFaultsReportTheFirstCheckedOne) {
  // Per instance in netlist order: the cell, its arity, then its output
  // driver; so an unknown cell listed first wins over a later duplicate
  // driver, and a duplicate listed first wins over a later unknown cell.
  EXPECT_EQ(first_build_error("input(a, b)\nFROB(y, a)\nINV(x, a)\n"
                              "INV(x, b)\n"),
            "circuit builder: FROB(y, ...) (line 2): unknown cell \"FROB\"");
  EXPECT_EQ(first_build_error("input(a, b)\nINV(x, a)\nINV(x, b)\n"
                              "FROB(y, a)\n"),
            "circuit builder: INV(x, ...) (line 3): net \"x\" is defined "
            "twice");
  // Every driver and input is checked before the topological sort, so an
  // undriven input wins over a cycle listed before it.
  EXPECT_EQ(first_build_error("input(a)\nNOR2(y, a, z)\nNOR2(z, a, y)\n"
                              "NOR2(x, a, ghost)\n"),
            "circuit builder: NOR2(x, ...) (line 4): input net \"ghost\" is "
            "driven by no gate, wire, or primary input");
  // Instance inputs are resolved before wire inputs, whatever the lines.
  EXPECT_EQ(first_build_error("input(a)\nWIRE(w, ghost, r=1e3, c=1e-15)\n"
                              "INV(q, ghost2)\n"),
            "circuit builder: INV(q, ...) (line 3): input net \"ghost2\" is "
            "driven by no gate, wire, or primary input");
  // Wire parameters are checked with the drivers, before any input.
  EXPECT_EQ(first_build_error("input(a)\nINV(q, ghost)\n"
                              "WIRE(w, a, r=-1, c=1e-15)\n"),
            "circuit builder: WIRE(w, a) (line 3): wire: r_total must be "
            "positive, got -1.000000");
  // Declared outputs are resolved after every input, before the sort.
  EXPECT_EQ(first_build_error("input(a)\nINV(x, a)\noutput(nope)\n"
                              "NOR2(y, x, y)\n"),
            "circuit builder: declared primary output \"nope\" is driven by "
            "no gate, wire, or primary input");
}

// --- topology: net ids and order ------------------------------------------

// Kahn's algorithm over net names: a string-keyed driver map, per-driver
// user lists in element then pin order, and a FIFO ready list seeded in
// element order.
std::vector<int> reference_order(const cell::NetlistDesc& desc) {
  const std::size_t n_elems = desc.instances.size() + desc.wires.size();
  std::unordered_map<std::string, int> driver;
  for (const auto& name : desc.inputs) driver.emplace(name, -1);
  for (std::size_t e = 0; e < n_elems; ++e) {
    driver.emplace(sim::NetlistTopology::output_of(desc, e),
                   static_cast<int>(e));
  }
  std::vector<int> missing(n_elems, 0);
  std::unordered_map<int, std::vector<int>> users;
  std::vector<int> ready;
  for (std::size_t e = 0; e < n_elems; ++e) {
    std::vector<std::string> inputs;
    if (sim::NetlistTopology::is_wire(desc, e)) {
      inputs.push_back(sim::NetlistTopology::wire_of(desc, e).input);
    } else {
      inputs = desc.instances[e].inputs;
    }
    for (const auto& input : inputs) {
      const int d = driver.at(input);
      if (d >= 0) {
        ++missing[e];
        users[d].push_back(static_cast<int>(e));
      }
    }
    if (missing[e] == 0) ready.push_back(static_cast<int>(e));
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    for (const int user : users[ready[head]]) {
      if (--missing[static_cast<std::size_t>(user)] == 0) {
        ready.push_back(user);
      }
    }
  }
  return ready;
}

// analyze_topology's order equals the reference, and every net id names
// the string it replaced.
void expect_topology_matches(const cell::NetlistDesc& desc) {
  const sim::NetlistTopology topo =
      reference_builder().analyze_topology(desc);
  EXPECT_EQ(topo.order, reference_order(desc));
  const std::size_t n_elems = desc.instances.size() + desc.wires.size();
  ASSERT_EQ(topo.input_begin.size(), n_elems + 1);
  ASSERT_EQ(topo.input_begin.back(), topo.input_net.size());
  const auto name = [&](int net) {
    return sim::NetlistTopology::net_name(desc, static_cast<std::size_t>(net));
  };
  for (std::size_t e = 0; e < n_elems; ++e) {
    const std::size_t a = topo.input_begin[e];
    if (sim::NetlistTopology::is_wire(desc, e)) {
      ASSERT_EQ(topo.input_begin[e + 1] - a, 1u);
      EXPECT_EQ(name(topo.input_net[a]),
                sim::NetlistTopology::wire_of(desc, e).input);
      continue;
    }
    const auto& inputs = desc.instances[e].inputs;
    ASSERT_EQ(topo.input_begin[e + 1] - a, inputs.size());
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      EXPECT_EQ(name(topo.input_net[a + k]), inputs[k]) << "element " << e;
    }
  }
  ASSERT_EQ(topo.output_net.size(), desc.outputs.size());
  for (std::size_t i = 0; i < desc.outputs.size(); ++i) {
    EXPECT_EQ(name(topo.output_net[i]), desc.outputs[i]);
  }
}

TEST(CircuitBuilder, TopologyMatchesAStringKeyedKahnOnShippedNetlists) {
  for (const char* file : {"c17.net", "c432.net", "mixed_tree.net"}) {
    SCOPED_TRACE(file);
    expect_topology_matches(cell::read_netlist_file(
        std::string(CHARLIE_SOURCE_DIR "/examples/netlists/") + file));
  }
}

TEST(CircuitBuilder, TopologyMatchesAStringKeyedKahnOnAGeneratedDesign) {
  cell::NetlistGenConfig config;
  config.n_gates = 3000;
  config.layer_width = 64;
  config.wire_fraction = 0.1;
  config.seed = 5;
  cell::NetlistDesc desc = cell::generate_netlist(config);
  ASSERT_GT(desc.n_wires(), 0u);
  expect_topology_matches(desc);
  // Listed out of order, the elements are sorted by the same FIFO.
  std::mt19937 rng(25);
  std::shuffle(desc.instances.begin(), desc.instances.end(), rng);
  std::shuffle(desc.wires.begin(), desc.wires.end(), rng);
  expect_topology_matches(desc);
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
