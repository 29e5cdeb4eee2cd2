// Levelized block-based static timing analysis over a validated netlist.
//
// TimingGraph reuses CircuitBuilder's validation and topological order
// (sim::NetlistTopology) -- the exact graph the event engine simulates --
// and propagates per-direction (rise/fall) worst-case times over it:
//
//   * deterministic mode: latest arrival per (net, direction) forward,
//     slack per net backward from the endpoints against a deadline, and
//     top-K critical-path enumeration (a deviation search over the
//     exact-arrival argmax arcs, so paths come out in exact decreasing-delay
//     order);
//   * corner mode: the same propagation with gate arcs re-extracted from a
//     cell::CellLibrary::at_corner derivation of the library, once per
//     distinct cell (wires stay nominal, matching sim::ProcessBinder);
//   * statistical mode: canonical first-order forms (sta::Canonical)
//     propagated with Clark's statistical max; arc sensitivities come from
//     central differences of the arc set at +-1 sigma per active
//     sim::ProcessVariation axis.
//
// Unateness: positive-unate elements (BUF, AND, OR, wires) feed input rise
// into output rise; negative-unate elements (INV, NAND, NOR) feed input
// rise into output fall; XOR is non-unate and feeds both. Arrival at every
// primary input is 0 in both directions (simultaneous-stimulus convention;
// BatchRunner's response delays are measured against the latest stimulus
// edge, which this bounds).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "core/process_point.hpp"
#include "sim/process_variation.hpp"
#include "sta/arc_delays.hpp"
#include "sta/canonical.hpp"

namespace charlie::sta {

/// One transition along a critical path.
struct PathStep {
  std::string net;
  bool rising = true;
  double t = 0.0;  // path time of this transition (input edge at 0) [s]
};

/// One register-to-register (here: input-to-endpoint) path, primary input
/// first.
struct CriticalPath {
  double delay = 0.0;  // total path delay: the arcs summed input first [s]
  std::vector<PathStep> steps;
};

/// Per-net deterministic timing. Required times are arrival + slack per
/// direction; both are +infinity for nets no declared endpoint depends on.
struct NetTiming {
  std::string net;
  double arrival_rise = 0.0;
  double arrival_fall = 0.0;
  double required_rise = 0.0;
  double required_fall = 0.0;
  double slack = 0.0;  // min over both directions
};

struct TimingResult {
  double critical_delay = 0.0;  // latest endpoint arrival [s]
  std::string critical_endpoint;
  bool critical_rising = true;  // direction of the latest endpoint arrival
  double worst_slack = 0.0;     // min slack over constrained nets
  std::vector<NetTiming> nets;  // graph net order (inputs first, then topo)
};

/// Canonical (statistical) arc set: one Canonical per element arc, in the
/// ArcSet layout.
using CanonicalArcSet = FlatArcs<Canonical>;

class TimingGraph {
 public:
  /// Validates `desc` against `library` (same checks and ConfigError
  /// diagnostics as CircuitBuilder::build), maps each gate instance to its
  /// cell and extracts the nominal arc set. Endpoints are the declared
  /// `output(...)` nets, falling back to the last instance's output
  /// (BatchRunner's observation convention).
  TimingGraph(const cell::NetlistDesc& desc,
              std::shared_ptr<const cell::CellLibrary> library);

  const std::vector<std::string>& nets() const { return net_names_; }
  const std::vector<std::string>& endpoints() const { return endpoints_; }
  const ArcSet& nominal_arcs() const { return nominal_arcs_; }

  /// Arc set at a process corner: gates re-derived analytically
  /// (at_corner, one arc_table() per distinct cell), wires nominal.
  ArcSet arcs_at(const core::ProcessPoint& point) const;

  /// Deterministic arrival/required/slack pass. Slack propagates backward
  /// through each arc's non-negative edge slack, so `deadline` <= 0 (slack
  /// against the critical delay itself) gives every net slack >= 0 and
  /// worst slack exactly 0.
  TimingResult analyze(const ArcSet& arcs, double deadline) const;

  /// Top-k input-to-endpoint paths in exact decreasing delay order: a
  /// deviation search in which each step completes one path along the
  /// exact-arrival argmax arcs, so k paths cost O(k * depth * fanin) heap
  /// operations. Fewer than k paths are returned only when the circuit has
  /// fewer paths. paths[0].delay equals analyze()'s critical delay.
  std::vector<CriticalPath> critical_paths(const ArcSet& arcs,
                                           std::size_t k) const;

  /// Canonical arc set under `variation`: mean from the nominal arcs,
  /// per-axis sensitivities by central differences at +-1 sigma (six
  /// at_corner derivations, only active axes pay), zero residual (the
  /// process model is fully correlated across a die).
  CanonicalArcSet canonical_arcs(const sim::ProcessVariation& variation) const;

  /// One-pass SSTA: canonical arrivals with statistical max, reduced over
  /// every endpoint in both directions. The result's quantiles/prob_below
  /// answer timing-yield queries without a Monte-Carlo batch.
  Canonical analyze_ssta(const CanonicalArcSet& arcs) const;

 private:
  struct Element {
    sim::GateKind kind = sim::GateKind::kBuf;  // wires: kBuf
    int output = -1;                           // net id
  };

  /// Visit every timing arc into element `e`'s output transition in
  /// direction `out_rising` as visit(arc index, input net, input rising):
  /// pin order, same-direction input before the opposite one.
  template <typename Visit>
  void for_each_arc(std::size_t e, bool out_rising, Visit&& visit) const;

  /// Generic forward (net, direction) propagation over the topo order;
  /// V is double (deterministic max) or Canonical (statistical max).
  /// Instantiated in timing_graph.cpp only.
  template <typename V, typename Join>
  void propagate(const FlatArcs<V>& arcs, Join&& join, std::vector<V>& rise,
                 std::vector<V>& fall) const;

  /// Overwrite the gate arcs of `arcs` from `library` (the graph's library
  /// or an at_corner derivation of it): one arc_table() per distinct cell,
  /// then a flat copy per instance. The one arc-fill path.
  void fill_gate_arcs(const cell::CellLibrary& library, ArcSet& arcs) const;

  /// Asserts that `arcs` has this graph's layout.
  template <typename V>
  void check_arcs(const FlatArcs<V>& arcs) const;

  std::shared_ptr<const cell::CellLibrary> library_;
  std::vector<std::string> net_names_;  // inputs first, element order
  std::vector<int> driver_;             // net id -> element or -1
  std::vector<Element> elements_;       // unified element indexing
  std::vector<int> fanin_;              // input net id per arc (ArcSet layout)
  std::vector<int> order_;              // element topo order
  std::vector<std::size_t> cell_of_;    // gate -> index in library specs()
  std::vector<std::size_t> cells_;      // distinct cell indices in use
  std::vector<std::string> endpoints_;
  std::vector<int> endpoint_ids_;
  ArcSet nominal_arcs_;  // its offsets are the graph's arc layout
};

}  // namespace charlie::sta
