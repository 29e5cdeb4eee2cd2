// Netlist-driven circuit construction against a characterized cell library.
//
// CircuitBuilder is the instantiation half of the characterize-once /
// instantiate-many lifecycle: it consumes a cell::NetlistDesc (primary
// inputs, primary outputs, cell instances, RC wires) and a
// cell::CellLibrary and emits a validated sim::Circuit -- hybrid MIS cells
// get HybridGateChannel instances sharing the library's per-cell mode
// tables, SIS cells get inertial channels with the library's characterized
// delays, and WIRE statements get hybrid WireChannel instances sharing one
// collapsed wire::WireModeTables per distinct wire geometry (memoized
// inside the builder, so BatchRunner's per-worker build() clones never
// re-derive a collapse). Calling build() repeatedly re-instantiates the
// circuit without re-deriving anything.
//
// build() validates the netlist against the library and throws ConfigError
// (with the offending net/cell and source line when available) for:
//   * unknown cell names;
//   * arity mismatches between an instance and its cell;
//   * duplicate net definitions (two drivers -- gate or wire -- or a
//     driver colliding with a primary input);
//   * undriven nets (an instance or wire input that nothing defines);
//   * invalid wire parameters (wire::WireParams::validate);
//   * declared primary outputs that no net defines;
//   * combinational cycles (the engine requires acyclic circuits).
// Instances and wires may appear in any order; the builder topologically
// sorts them, so the emitted circuit's gates are in topological order.
// build_sharded() is build() plus a first cut of those gates into
// contiguous ranges for sim::ShardedCircuit; nothing is emitted per shard.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "sim/circuit.hpp"
#include "sim/sharded_circuit.hpp"
#include "wire/wire_tables.hpp"

namespace charlie::sim {

/// Validated netlist topology, ready for emission or static analysis: the
/// resolved cell spec per instance, every net reference resolved to an
/// integer net id, and the element topological order. Elements use unified
/// indexing -- gates first in netlist order, wires after, so element e >=
/// desc.instances.size() is wire e - desc.instances.size(). Net ids follow
/// the producers: primary input i is net i, and element e's output is net
/// desc.inputs.size() + e (net_name maps an id back to its name).
/// Produced by CircuitBuilder::analyze_topology (which performs the full
/// build() validation pass) and consumed by build() internally and by the
/// sta layer's timing graph construction, so each name is resolved once.
struct NetlistTopology {
  std::vector<const cell::CellSpec*> specs;  // per instance, netlist order
  // Element e reads nets input_net[input_begin[e] .. input_begin[e + 1]),
  // in pin order (a wire has one pin).
  std::vector<std::size_t> input_begin;
  std::vector<int> input_net;
  std::vector<int> output_net;  // per declared output, desc.outputs order
  std::vector<int> order;       // elements, topo order

  static bool is_wire(const cell::NetlistDesc& desc, std::size_t e) {
    return e >= desc.instances.size();
  }
  static const cell::NetlistWire& wire_of(const cell::NetlistDesc& desc,
                                          std::size_t e) {
    return desc.wires[e - desc.instances.size()];
  }
  static const std::string& output_of(const cell::NetlistDesc& desc,
                                      std::size_t e) {
    return is_wire(desc, e) ? wire_of(desc, e).output
                            : desc.instances[e].output;
  }
  /// The name of net id `net`: a primary input or an element's output.
  static const std::string& net_name(const cell::NetlistDesc& desc,
                                     std::size_t net) {
    return net < desc.inputs.size()
               ? desc.inputs[net]
               : output_of(desc, net - desc.inputs.size());
  }
};

class CircuitBuilder {
 public:
  /// The library is shared, not copied: every circuit built refers to the
  /// same characterized specs and mode tables.
  explicit CircuitBuilder(std::shared_ptr<const cell::CellLibrary> library);

  /// Convenience: wraps `library` in a shared_ptr by copy.
  explicit CircuitBuilder(const cell::CellLibrary& library);

  /// Validate `desc` against the library and emit the circuit. Primary
  /// inputs are declared in netlist order (the stimulus order for
  /// Circuit::simulate and BatchRunner). Wires are emitted as single-input
  /// buffer gates carrying a WireChannel.
  std::unique_ptr<Circuit> build(const cell::NetlistDesc& desc) const;

  /// Parse-and-build conveniences for netlist text / files.
  std::unique_ptr<Circuit> build_text(const std::string& netlist_text) const;
  std::unique_ptr<Circuit> build_file(const std::string& path) const;

  /// build(desc), split into `n_shards` gate-range shards for parallel
  /// simulation by sim::ShardedCircuit. The built circuit's gates are in
  /// topological order; the first cut balances gate counts, each cut placed
  /// (within a balance slack) where the fewest nets are live -- a cheap
  /// min-cut that keeps the shard graph acyclic by construction -- and
  /// every completed run re-cuts on its measured work. n_shards is clamped
  /// to [1, n_elements]; simulation output is bit-identical to build() +
  /// Circuit::simulate for any shard count and cut.
  std::unique_ptr<ShardedCircuit> build_sharded(const cell::NetlistDesc& desc,
                                                std::size_t n_shards) const;

  /// Validate `desc` against the library (the same checks and ConfigError
  /// diagnostics as build()) and return its topology without instantiating
  /// any channel. This is the static-analysis entry point: the sta layer
  /// walks the returned topological order to build its timing graph.
  NetlistTopology analyze_topology(const cell::NetlistDesc& desc) const;

  /// Collapsed wire tables of one validated WIRE statement (shared,
  /// memoized per distinct geometry). The sta layer reads static per-arc
  /// wire delays off these tables.
  std::shared_ptr<const wire::WireModeTables> wire_tables(
      const cell::NetlistWire& wire) const {
    return wire_tables_for(wire);
  }

  const cell::CellLibrary& library() const { return *library_; }

  /// Number of distinct wire geometries collapsed so far (testing hook for
  /// the collapse-once guarantee across repeated build() calls).
  std::size_t n_wire_tables() const;

 private:
  std::shared_ptr<const wire::WireModeTables> wire_tables_for(
      const cell::NetlistWire& wire) const;

  /// Emit one validated element (gate or wire) of `desc` into `circuit`
  /// and return its output net; `net_of` maps topology net ids to the
  /// circuit's nets emitted so far.
  Circuit::NetId emit_element(Circuit& circuit, const cell::NetlistDesc& desc,
                              const NetlistTopology& topo,
                              const std::vector<Circuit::NetId>& net_of,
                              std::size_t e) const;

  std::shared_ptr<const cell::CellLibrary> library_;
  // One collapsed table per distinct WireParams fingerprint, shared by
  // every WireChannel instance across all circuits this builder emits (and
  // across builder copies, which share the cache object). Guarded so
  // factory clones may be built from concurrent threads.
  struct WireTableCache {
    std::mutex mutex;
    std::unordered_map<std::string,
                       std::shared_ptr<const wire::WireModeTables>>
        tables;
  };
  std::shared_ptr<WireTableCache> wire_cache_;
};

}  // namespace charlie::sim
