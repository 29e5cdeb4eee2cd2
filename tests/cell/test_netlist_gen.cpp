// Synthetic netlist generation and the text serializer: deterministic
// output, exact write/parse round-trip, and the generated topology must be
// valid under CircuitBuilder (acyclic, every net driven once) -- both
// monolithically and sharded, since generated netlists are the sharded
// benchmark workload (they include RC wires, which the shipped c432
// example does not).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cell/cell_library.hpp"
#include "cell/netlist_gen.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/sharded_circuit.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace charlie {
namespace {

cell::NetlistGenConfig small_config() {
  cell::NetlistGenConfig config;
  config.n_gates = 500;
  config.n_inputs = 12;
  config.n_outputs = 8;
  config.layer_width = 32;
  config.wire_fraction = 0.05;
  config.seed = 3;
  return config;
}

sim::CircuitBuilder builder() {
  static const auto library =
      std::make_shared<const cell::CellLibrary>(cell::CellLibrary::reference());
  return sim::CircuitBuilder(library);
}

TEST(NetlistGen, DeterministicAndSized) {
  const auto a = cell::generate_netlist(small_config());
  const auto b = cell::generate_netlist(small_config());
  EXPECT_EQ(a.n_gates(), 500u);
  EXPECT_EQ(a.inputs.size(), 12u);
  EXPECT_EQ(a.outputs.size(), 8u);
  EXPECT_GT(a.n_wires(), 0u);
  EXPECT_EQ(cell::write_netlist(a), cell::write_netlist(b));
  // A different seed reshapes the netlist.
  auto other = small_config();
  other.seed = 4;
  EXPECT_NE(cell::write_netlist(a),
            cell::write_netlist(cell::generate_netlist(other)));
}

TEST(NetlistGen, WriteParseRoundTrips) {
  const auto desc = cell::generate_netlist(small_config());
  const auto reparsed = cell::parse_netlist(cell::write_netlist(desc));
  EXPECT_EQ(reparsed.inputs, desc.inputs);
  EXPECT_EQ(reparsed.outputs, desc.outputs);
  ASSERT_EQ(reparsed.n_gates(), desc.n_gates());
  ASSERT_EQ(reparsed.n_wires(), desc.n_wires());
  for (std::size_t i = 0; i < desc.instances.size(); ++i) {
    EXPECT_EQ(reparsed.instances[i].cell, desc.instances[i].cell);
    EXPECT_EQ(reparsed.instances[i].output, desc.instances[i].output);
    EXPECT_EQ(reparsed.instances[i].inputs, desc.instances[i].inputs);
  }
  for (std::size_t i = 0; i < desc.wires.size(); ++i) {
    EXPECT_EQ(reparsed.wires[i].output, desc.wires[i].output);
    EXPECT_EQ(reparsed.wires[i].input, desc.wires[i].input);
    EXPECT_EQ(reparsed.wires[i].r_total, desc.wires[i].r_total);
    EXPECT_EQ(reparsed.wires[i].c_total, desc.wires[i].c_total);
    EXPECT_EQ(reparsed.wires[i].sections, desc.wires[i].sections);
    EXPECT_EQ(reparsed.wires[i].vdd, desc.wires[i].vdd);
  }
}

TEST(NetlistGen, GeneratedNetlistBuildsAndShardsBitIdentically) {
  const auto desc = cell::generate_netlist(small_config());
  const auto b = builder();
  auto mono = b.build(desc);  // validates: acyclic, driven exactly once
  auto sharded = b.build_sharded(desc, 4);
  EXPECT_EQ(sharded->n_gates(), mono->n_gates());

  waveform::TraceConfig trace;
  trace.mu = 150e-12;
  trace.sigma = 60e-12;
  trace.n_transitions = 20;
  util::Rng rng(5);
  const auto stimuli =
      waveform::generate_traces(trace, mono->n_inputs(), rng);
  double t_last = 0.0;
  for (const auto& t : stimuli) {
    if (!t.empty()) t_last = std::max(t_last, t.transitions().back());
  }
  const double t_end = t_last + 2e-9;

  const auto expected = mono->simulate(stimuli, 0.0, t_end);
  ASSERT_TRUE(expected.ok()) << expected.diagnostics.summary();
  sim::ShardedSimConfig config;
  config.n_threads = 2;
  const auto actual = sharded->simulate(stimuli, 0.0, t_end, config);
  EXPECT_EQ(expected.n_events, actual.n_events);
  for (const auto& name : desc.outputs) {
    const auto& mono_trace = expected.trace(mono->find_net(name));
    const auto& sharded_trace = actual.trace(name);
    EXPECT_EQ(mono_trace.initial_value(), sharded_trace.initial_value())
        << name;
    EXPECT_EQ(mono_trace.transitions(), sharded_trace.transitions()) << name;
  }
}

TEST(NetlistGen, RejectsNonsenseConfig) {
  auto config = small_config();
  config.n_gates = 0;
  EXPECT_THROW(cell::generate_netlist(config), ConfigError);
  config = small_config();
  config.wire_fraction = 1.5;
  EXPECT_THROW(cell::generate_netlist(config), ConfigError);
}

}  // namespace
}  // namespace charlie
