// Levelized block-based static timing analysis over a validated netlist.
//
// TimingGraph reuses CircuitBuilder's validation, net ids and topological
// order (sim::NetlistTopology) -- the exact graph the event engine
// simulates -- and propagates per-direction (rise/fall) worst-case times
// over it:
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
// Every pass walks one sweep schedule built at construction: the elements
// ordered by (logic level, unateness, arity), each with a contiguous run of
// pin records. An element's times depend only on its inputs' times and its
// own arcs, joined in pin order, so any topological order gives the same
// bits; this one keeps memory access and branches regular.
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

/// Per-net deterministic timing; row n belongs to TimingGraph::nets()[n].
/// Required times are arrival + slack per direction; both are +infinity
/// for nets no declared endpoint depends on.
struct NetTiming {
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
  std::vector<NetTiming> nets;  // index-aligned with TimingGraph::nets()
};

/// Canonical (statistical) arc set: one Canonical per element arc, in the
/// ArcSet layout.
using CanonicalArcSet = FlatArcs<Canonical>;

class TimingGraph {
 public:
  /// Validates `desc` against `library` (same checks and ConfigError
  /// diagnostics as CircuitBuilder::build), maps each gate instance to its
  /// cell, builds the sweep schedule and extracts the nominal arc set.
  /// Endpoints are the declared `output(...)` nets, falling back to the
  /// last instance's output, then the last wire's (BatchRunner's
  /// observation convention); a netlist with none of them has nothing to
  /// time and throws ConfigError.
  TimingGraph(const cell::NetlistDesc& desc,
              std::shared_ptr<const cell::CellLibrary> library);

  /// Net names: primary inputs first, then element outputs in element
  /// order. TimingResult::nets rows follow this indexing.
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
  /// Unateness class: kPositive feeds input rise into output rise,
  /// kNegative into output fall, kNon (XOR) into both.
  enum class Unate : std::uint8_t { kPositive, kNegative, kNon };
  static Unate unateness(sim::GateKind kind);

  /// One input pin of a scheduled element. Times are kept as interleaved
  /// (fall, rise) pairs: slot 2n is net n falling, 2n + 1 net n rising.
  struct Pin {
    std::uint32_t slot = 0;  // 2 * input net
    std::uint32_t arc = 0;   // arc index in the ArcSet layout
  };

  /// One element of the sweep schedule.
  struct Step {
    std::uint32_t out = 0;        // 2 * output net
    std::uint32_t first_pin = 0;  // its pins are pins_[first_pin, + n_pins)
    Unate unate = Unate::kPositive;
    std::uint8_t n_pins = 0;
  };

  /// Visit every timing arc into `step`'s output transition in direction
  /// `out_rising` as visit(arc index, input transition slot): pin order,
  /// same-direction input before the opposite one.
  template <typename Visit>
  void for_each_arc(const Step& step, bool out_rising, Visit&& visit) const;

  /// Latest arrival per transition slot: the one forward kernel of
  /// analyze() and critical_paths().
  std::vector<double> arrivals(const ArcSet& arcs) const;

  /// The arc set at `library` (the graph's library or an at_corner
  /// derivation of it): gate arcs straight from one arc_table() per
  /// distinct cell, wire arcs from nominal_arcs_. The one arc-fill path.
  ArcSet extract_arcs(const cell::CellLibrary& library) const;

  /// Asserts that `arcs` has this graph's layout.
  template <typename V>
  void check_arcs(const FlatArcs<V>& arcs) const;

  std::shared_ptr<const cell::CellLibrary> library_;
  std::vector<std::string> net_names_;  // inputs first, element order
  std::vector<Step> schedule_;          // by (level, unateness, arity)
  std::vector<Pin> pins_;               // pin runs in schedule order
  std::vector<std::int32_t> driver_;    // net -> schedule position or -1
  std::vector<std::size_t> cell_of_;    // gate -> index in library specs()
  std::vector<std::size_t> cells_;      // distinct cell indices in use
  std::vector<std::string> endpoints_;
  std::vector<std::uint32_t> endpoint_ids_;
  ArcSet nominal_arcs_;  // its offsets are the graph's arc layout
};

}  // namespace charlie::sta
