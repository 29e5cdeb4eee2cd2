#include "sim/circuit_builder.hpp"

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

template <typename Visit>
void for_each_input(const cell::NetlistDesc& desc, std::size_t e,
                    Visit&& visit) {
  NetlistTopology::for_each_input(desc, e, std::forward<Visit>(visit));
}

NetlistTopology prepare_netlist(const cell::NetlistDesc& desc,
                                const cell::CellLibrary& library) {
  // --- semantic validation -------------------------------------------------
  const std::size_t n_gates = desc.instances.size();
  const std::size_t n_elems = n_gates + desc.wires.size();

  NetlistTopology prep;
  for (const auto& name : desc.inputs) {
    if (!prep.driver.emplace(name, -1).second) {
      throw ConfigError("circuit builder: primary input \"" + name +
                        "\" declared twice");
    }
  }
  prep.specs.assign(n_gates, nullptr);
  for (std::size_t i = 0; i < n_gates; ++i) {
    const auto& inst = desc.instances[i];
    const cell::CellSpec* spec = library.find(inst.cell);
    if (spec == nullptr) {
      build_error(inst, "unknown cell \"" + inst.cell + "\"");
    }
    prep.specs[i] = spec;
    if (static_cast<int>(inst.inputs.size()) != spec->arity) {
      build_error(inst, "cell " + spec->name + " takes " +
                            std::to_string(spec->arity) + " inputs, got " +
                            std::to_string(inst.inputs.size()));
    }
    if (!prep.driver.emplace(inst.output, static_cast<int>(i)).second) {
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
    if (!prep.driver.emplace(wire.output, static_cast<int>(n_gates + w))
             .second) {
      wire_error(wire, "net \"" + wire.output + "\" is defined twice");
    }
  }
  for (const auto& inst : desc.instances) {
    for (const auto& input : inst.inputs) {
      if (prep.driver.find(input) == prep.driver.end()) {
        build_error(inst, "input net \"" + input +
                              "\" is driven by no gate, wire, or primary "
                              "input");
      }
    }
  }
  for (const auto& wire : desc.wires) {
    if (prep.driver.find(wire.input) == prep.driver.end()) {
      wire_error(wire, "input net \"" + wire.input +
                           "\" is driven by no gate, wire, or primary "
                           "input");
    }
  }
  for (const auto& name : desc.outputs) {
    if (prep.driver.find(name) == prep.driver.end()) {
      throw ConfigError("circuit builder: declared primary output \"" + name +
                        "\" is driven by no gate, wire, or primary input");
    }
  }

  // --- topological order (Kahn) -------------------------------------------
  // The engine appends gates after their input nets exist, so elements are
  // emitted in dependency order regardless of netlist order; leftover
  // elements sit on a combinational cycle.
  std::vector<int> missing_inputs(n_elems, 0);
  std::unordered_map<int, std::vector<int>> dependents;  // driver -> users
  std::vector<int> ready;
  for (std::size_t e = 0; e < n_elems; ++e) {
    for_each_input(desc, e, [&](const std::string& input) {
      const int d = prep.driver.at(input);
      if (d >= 0) {
        ++missing_inputs[e];
        dependents[d].push_back(static_cast<int>(e));
      }
    });
    if (missing_inputs[e] == 0) ready.push_back(static_cast<int>(e));
  }
  prep.order.reserve(n_elems);
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const int e = ready[head];
    prep.order.push_back(e);
    const auto it = dependents.find(e);
    if (it == dependents.end()) continue;
    for (const int user : it->second) {
      if (--missing_inputs[user] == 0) ready.push_back(user);
    }
  }
  if (prep.order.size() != n_elems) {
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
  return prep;
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

void CircuitBuilder::emit_element(Circuit& circuit,
                                  const cell::NetlistDesc& desc,
                                  const std::vector<const cell::CellSpec*>&
                                      specs,
                                  std::size_t e) const {
  if (is_wire(desc, e)) {
    const auto& wire = wire_of(desc, e);
    circuit.add_gate(GateKind::kBuf, wire.output,
                     {circuit.find_net(wire.input)},
                     std::make_unique<WireChannel>(wire_tables_for(wire)));
    return;
  }
  const auto& inst = desc.instances[e];
  const cell::CellSpec& spec = *specs[e];
  std::vector<Circuit::NetId> inputs;
  inputs.reserve(inst.inputs.size());
  for (const auto& input : inst.inputs) {
    inputs.push_back(circuit.find_net(input));
  }
  if (spec.hybrid) {
    circuit.add_mis_gate(spec.kind, inst.output, std::move(inputs),
                         spec.make_mis_channel());
  } else {
    circuit.add_gate(spec.kind, inst.output, std::move(inputs),
                     spec.make_sis_channel());
  }
}

std::unique_ptr<Circuit> CircuitBuilder::build(
    const cell::NetlistDesc& desc) const {
  const NetlistTopology prep = prepare_netlist(desc, *library_);
  auto circuit = std::make_unique<Circuit>();
  // Size the channel arrays up front: filling them then moves nothing.
  std::size_t n_hybrid = 0;
  for (std::size_t i = 0; i < desc.instances.size(); ++i) {
    if (prep.specs[i]->hybrid) ++n_hybrid;
  }
  circuit->reserve(desc.inputs.size() + desc.instances.size() +
                       desc.wires.size(),
                   n_hybrid, desc.instances.size() - n_hybrid,
                   desc.wires.size());
  for (const auto& name : desc.inputs) circuit->add_input(name);
  for (const int e : prep.order) {
    emit_element(*circuit, desc, prep.specs, static_cast<std::size_t>(e));
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
