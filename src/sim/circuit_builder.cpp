#include "sim/circuit_builder.hpp"

#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/wire_channel.hpp"
#include "util/error.hpp"

namespace charlie::sim {

namespace {

[[noreturn]] void build_error(const cell::NetlistInstance& inst,
                              const std::string& why) {
  std::string where = inst.cell + "(" + inst.output + ", ...)";
  if (inst.line > 0) where += " (line " + std::to_string(inst.line) + ")";
  throw ConfigError("circuit builder: " + where + ": " + why);
}

[[noreturn]] void wire_error(const cell::NetlistWire& wire,
                             const std::string& why) {
  std::string where = "WIRE(" + wire.output + ", " + wire.input + ")";
  if (wire.line > 0) where += " (line " + std::to_string(wire.line) + ")";
  throw ConfigError("circuit builder: " + where + ": " + why);
}

wire::WireParams wire_params_of(const cell::NetlistWire& wire) {
  wire::WireParams params;
  params.r_total = wire.r_total;
  params.c_total = wire.c_total;
  params.n_sections = wire.sections;
  params.r_drive = wire.r_drive;
  params.c_load = wire.c_load;
  params.t_drive = wire.t_drive;
  params.vdd = wire.vdd;
  return params;
}

// Unified element indexing (gates first, wires after) lives on
// NetlistTopology so the sta layer walks netlists the same way.
bool is_wire(const cell::NetlistDesc& desc, std::size_t e) {
  return NetlistTopology::is_wire(desc, e);
}

const cell::NetlistWire& wire_of(const cell::NetlistDesc& desc,
                                 std::size_t e) {
  return NetlistTopology::wire_of(desc, e);
}

constexpr const char* kUndriven =
    "\" is driven by no gate, wire, or primary input";

NetlistTopology prepare_netlist(const cell::NetlistDesc& desc,
                                const cell::CellLibrary& library) {
  // --- semantic validation -------------------------------------------------
  const std::size_t n_inputs = desc.inputs.size();
  const std::size_t n_gates = desc.instances.size();
  const std::size_t n_elems = n_gates + desc.wires.size();
  if (n_inputs + n_elems >
      static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw ConfigError("circuit builder: netlist exceeds 2^31 nets");
  }

  // The one name table: each net's producer id, keyed by views into `desc`.
  // Every later reference resolves through it exactly once.
  std::unordered_map<std::string_view, int> net_id;
  net_id.reserve(n_inputs + n_elems);
  const auto resolve = [&](const std::string& name) {
    const auto it = net_id.find(name);
    return it == net_id.end() ? -1 : it->second;
  };

  NetlistTopology topo;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const std::string& name = desc.inputs[i];
    if (!net_id.emplace(name, static_cast<int>(i)).second) {
      throw ConfigError("circuit builder: primary input \"" + name +
                        "\" declared twice");
    }
  }
  topo.specs.assign(n_gates, nullptr);
  std::size_t n_pins = desc.wires.size();
  for (std::size_t i = 0; i < n_gates; ++i) {
    const auto& inst = desc.instances[i];
    const cell::CellSpec* spec = library.find(inst.cell);
    if (spec == nullptr) {
      build_error(inst, "unknown cell \"" + inst.cell + "\"");
    }
    topo.specs[i] = spec;
    if (static_cast<int>(inst.inputs.size()) != spec->arity) {
      build_error(inst, "cell " + spec->name + " takes " +
                            std::to_string(spec->arity) + " inputs, got " +
                            std::to_string(inst.inputs.size()));
    }
    n_pins += inst.inputs.size();
    if (!net_id.emplace(inst.output, static_cast<int>(n_inputs + i)).second) {
      build_error(inst, "net \"" + inst.output + "\" is defined twice");
    }
  }
  for (std::size_t w = 0; w < desc.wires.size(); ++w) {
    const auto& wire = desc.wires[w];
    try {
      wire_params_of(wire).validate();
    } catch (const ConfigError& e) {
      wire_error(wire, e.what());
    }
    if (!net_id.emplace(wire.output, static_cast<int>(n_inputs + n_gates + w))
             .second) {
      wire_error(wire, "net \"" + wire.output + "\" is defined twice");
    }
  }
  topo.input_begin.reserve(n_elems + 1);
  topo.input_begin.push_back(0);
  topo.input_net.reserve(n_pins);
  for (const auto& inst : desc.instances) {
    for (const auto& input : inst.inputs) {
      const int net = resolve(input);
      if (net < 0) build_error(inst, "input net \"" + input + kUndriven);
      topo.input_net.push_back(net);
    }
    topo.input_begin.push_back(topo.input_net.size());
  }
  for (const auto& wire : desc.wires) {
    const int net = resolve(wire.input);
    if (net < 0) wire_error(wire, "input net \"" + wire.input + kUndriven);
    topo.input_net.push_back(net);
    topo.input_begin.push_back(topo.input_net.size());
  }
  topo.output_net.reserve(desc.outputs.size());
  for (const auto& name : desc.outputs) {
    const int net = resolve(name);
    if (net < 0) {
      throw ConfigError("circuit builder: declared primary output \"" + name +
                        kUndriven);
    }
    topo.output_net.push_back(net);
  }

  // --- topological order (Kahn) -------------------------------------------
  // The engine appends gates after their input nets exist, so elements are
  // emitted in dependency order regardless of netlist order; leftover
  // elements sit on a combinational cycle. Element d's users are
  // user[user_begin[d] .. user_begin[d + 1]), in element then pin order,
  // and `order` is the FIFO ready list, seeded in element order.
  std::vector<int> missing_inputs(n_elems, 0);
  std::vector<std::size_t> user_begin(n_elems + 1, 0);
  for (std::size_t e = 0; e < n_elems; ++e) {
    for (std::size_t a = topo.input_begin[e]; a < topo.input_begin[e + 1];
         ++a) {
      const auto net = static_cast<std::size_t>(topo.input_net[a]);
      if (net < n_inputs) continue;
      ++missing_inputs[e];
      ++user_begin[net - n_inputs + 1];
    }
  }
  for (std::size_t d = 0; d < n_elems; ++d) user_begin[d + 1] += user_begin[d];
  std::vector<int> user(user_begin[n_elems]);
  {
    std::vector<std::size_t> next(user_begin.begin(), user_begin.end() - 1);
    for (std::size_t e = 0; e < n_elems; ++e) {
      for (std::size_t a = topo.input_begin[e]; a < topo.input_begin[e + 1];
           ++a) {
        const auto net = static_cast<std::size_t>(topo.input_net[a]);
        if (net >= n_inputs) user[next[net - n_inputs]++] = static_cast<int>(e);
      }
    }
  }
  topo.order.reserve(n_elems);
  for (std::size_t e = 0; e < n_elems; ++e) {
    if (missing_inputs[e] == 0) topo.order.push_back(static_cast<int>(e));
  }
  for (std::size_t head = 0; head < topo.order.size(); ++head) {
    const auto e = static_cast<std::size_t>(topo.order[head]);
    for (std::size_t u = user_begin[e]; u < user_begin[e + 1]; ++u) {
      if (--missing_inputs[static_cast<std::size_t>(user[u])] == 0) {
        topo.order.push_back(user[u]);
      }
    }
  }
  if (topo.order.size() != n_elems) {
    for (std::size_t e = 0; e < n_elems; ++e) {
      if (missing_inputs[e] > 0) {
        if (is_wire(desc, e)) {
          wire_error(wire_of(desc, e), "combinational cycle through net \"" +
                                           wire_of(desc, e).output + "\"");
        }
        build_error(desc.instances[e],
                    "combinational cycle through net \"" +
                        desc.instances[e].output + "\"");
      }
    }
  }
  return topo;
}

}  // namespace

CircuitBuilder::CircuitBuilder(
    std::shared_ptr<const cell::CellLibrary> library)
    : library_(std::move(library)),
      wire_cache_(std::make_shared<WireTableCache>()) {
  CHARLIE_ASSERT(library_ != nullptr);
}

CircuitBuilder::CircuitBuilder(const cell::CellLibrary& library)
    : library_(std::make_shared<cell::CellLibrary>(library)),
      wire_cache_(std::make_shared<WireTableCache>()) {}

NetlistTopology CircuitBuilder::analyze_topology(
    const cell::NetlistDesc& desc) const {
  return prepare_netlist(desc, *library_);
}

std::size_t CircuitBuilder::n_wire_tables() const {
  std::lock_guard<std::mutex> lock(wire_cache_->mutex);
  return wire_cache_->tables.size();
}

std::shared_ptr<const wire::WireModeTables> CircuitBuilder::wire_tables_for(
    const cell::NetlistWire& wire) const {
  const wire::WireParams params = wire_params_of(wire);
  const std::string key = params.fingerprint();
  std::lock_guard<std::mutex> lock(wire_cache_->mutex);
  auto it = wire_cache_->tables.find(key);
  if (it == wire_cache_->tables.end()) {
    it = wire_cache_->tables.emplace(key, wire::WireModeTables::make(params))
             .first;
  }
  return it->second;
}

Circuit::NetId CircuitBuilder::emit_element(
    Circuit& circuit, const cell::NetlistDesc& desc,
    const NetlistTopology& topo, const std::vector<Circuit::NetId>& net_of,
    std::size_t e) const {
  std::vector<Circuit::NetId> inputs;
  inputs.reserve(topo.input_begin[e + 1] - topo.input_begin[e]);
  for (std::size_t a = topo.input_begin[e]; a < topo.input_begin[e + 1]; ++a) {
    inputs.push_back(net_of[static_cast<std::size_t>(topo.input_net[a])]);
  }
  if (is_wire(desc, e)) {
    const auto& wire = wire_of(desc, e);
    return circuit.add_gate(GateKind::kBuf, wire.output, std::move(inputs),
                            std::make_unique<WireChannel>(
                                wire_tables_for(wire)));
  }
  const auto& inst = desc.instances[e];
  const cell::CellSpec& spec = *topo.specs[e];
  if (spec.hybrid) {
    return circuit.add_mis_gate(spec.kind, inst.output, std::move(inputs),
                                spec.make_mis_channel());
  }
  return circuit.add_gate(spec.kind, inst.output, std::move(inputs),
                          spec.make_sis_channel());
}

std::unique_ptr<Circuit> CircuitBuilder::build(
    const cell::NetlistDesc& desc) const {
  const NetlistTopology topo = prepare_netlist(desc, *library_);
  auto circuit = std::make_unique<Circuit>();
  // Size the channel arrays up front: filling them then moves nothing.
  std::size_t n_hybrid = 0;
  for (std::size_t i = 0; i < desc.instances.size(); ++i) {
    if (topo.specs[i]->hybrid) ++n_hybrid;
  }
  const std::size_t n_nets =
      desc.inputs.size() + desc.instances.size() + desc.wires.size();
  circuit->reserve(n_nets, n_hybrid, desc.instances.size() - n_hybrid,
                   desc.wires.size());
  // Topology net id -> the circuit's net.
  std::vector<Circuit::NetId> net_of(n_nets, -1);
  for (std::size_t i = 0; i < desc.inputs.size(); ++i) {
    net_of[i] = circuit->add_input(desc.inputs[i]);
  }
  for (const int e : topo.order) {
    const auto element = static_cast<std::size_t>(e);
    net_of[desc.inputs.size() + element] =
        emit_element(*circuit, desc, topo, net_of, element);
  }
  return circuit;
}

std::unique_ptr<ShardedCircuit> CircuitBuilder::build_sharded(
    const cell::NetlistDesc& desc, std::size_t n_shards) const {
  return std::make_unique<ShardedCircuit>(build(desc), n_shards);
}

std::unique_ptr<Circuit> CircuitBuilder::build_text(
    const std::string& netlist_text) const {
  return build(cell::parse_netlist(netlist_text));
}

std::unique_ptr<Circuit> CircuitBuilder::build_file(
    const std::string& path) const {
  return build(cell::read_netlist_file(path));
}

}  // namespace charlie::sim
