// Static per-arc delays: the bridge from the fitted hybrid model to the
// timing graph.
//
// The event engine answers "when does this output cross V_th" per stimulus;
// static timing analysis wants one number per (input pin, output direction)
// arc that bounds every answer the engine can produce. Those numbers come
// straight from the characterized model, no simulation:
//
//   * hybrid MIS gates: the conservative characteristic envelope
//     core::gate_arc_envelope on the cell's shared mode tables -- per pin,
//     the max of the single-input-switching delay (worst-case internal
//     hold) and the all-inputs-simultaneous delay -- plus the pure delay
//     delta_min (cell::CellSpec::arc_table);
//   * SIS cells: the characterized inertial rise/fall delay on every pin;
//   * wires: the collapsed Pade model's settled-line step-response crossing
//     plus the drive-shape correction (wire::WireModeTables::step_delay).
//
// sta::TimingGraph fills these per cell, not per instance: every instance
// of a cell shares one arc_table() evaluation, and wires (process-
// independent, matching sim::ProcessBinder) are extracted once.
//
// The conservatism argument (why these bound the event engine's delays over
// every switching context) is spelled out in docs/sta.md.
#pragma once

#include <cstddef>
#include <vector>

namespace charlie::sta {

/// Arcs of every element of a netlist in one flat layout. Elements use the
/// unified indexing (gates first in netlist order, wires after;
/// sim::NetlistTopology); element e owns the entries
/// [offsets[e], offsets[e + 1]) of `rise` and `fall`, one per input pin in
/// pin order -- the topology's input_begin layout. rise[offsets[e] + i] bounds the delay from input i's
/// transition to element e's output rising crossing, fall[...] the falling
/// one. V is double (ArcSet) or sta::Canonical (CanonicalArcSet).
template <typename V>
struct FlatArcs {
  std::vector<std::size_t> offsets;  // n_elements() + 1 entries, from 0
  std::vector<V> rise;               // arc input pin -> output rising [s]
  std::vector<V> fall;               // arc input pin -> output falling [s]

  std::size_t n_elements() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
};

using ArcSet = FlatArcs<double>;

}  // namespace charlie::sta
