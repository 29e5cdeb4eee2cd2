// Event-driven digital timing simulation of gate-level circuits.
//
// Architecture per the Involution Tool: zero-time boolean gates whose
// outputs drive delay channels. Any SisChannel can decorate any gate; NOR
// and NAND gates can alternatively carry a native multi-input MIS-aware
// channel (HybridGateChannel), which is the paper's extension.
//
// The circuit must be combinational (acyclic); stimuli are digital traces
// on the primary inputs.
//
// add_input/add_gate/add_mis_gate are the low-level construction API:
// callers wire channels by hand and must add gates after their input nets.
// Most circuits should instead come from a structural netlist through
// sim::CircuitBuilder + cell::CellLibrary (sim/circuit_builder.hpp), which
// validates the topology and instantiates characterized cells.
// simulate() runs a sim::SimSession (sim/sim_session.hpp) over every gate.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/channel.hpp"
#include "sim/run_guard.hpp"
#include "util/error.hpp"
#include "waveform/digital_trace.hpp"

namespace charlie::sim {

enum class GateKind {
  kBuf,
  kInv,
  kAnd2,
  kOr2,
  kNand2,
  kNor2,
  kXor2,
  kNor3,
  kNand3,
};

/// Maximum gate arity the engine's fixed-size input arrays support.
inline constexpr std::size_t kMaxGateArity = 3;

/// Number of inputs of a gate kind.
inline constexpr std::size_t gate_arity(GateKind kind) {
  if (kind == GateKind::kBuf || kind == GateKind::kInv) return 1;
  if (kind == GateKind::kNor3 || kind == GateKind::kNand3) return 3;
  return 2;
}

/// Zero-time boolean function of a gate, fixed three-value form (`b`/`c`
/// are ignored for lower-arity kinds). This is the event-loop hot path: a
/// plain switch over the kind, no span/vector<bool> indirection.
inline bool eval_gate(GateKind kind, bool a, bool b, bool c = false) {
  switch (kind) {
    case GateKind::kBuf:
      return a;
    case GateKind::kInv:
      return !a;
    case GateKind::kAnd2:
      return a && b;
    case GateKind::kOr2:
      return a || b;
    case GateKind::kNand2:
      return !(a && b);
    case GateKind::kNor2:
      return !(a || b);
    case GateKind::kXor2:
      return a != b;
    case GateKind::kNor3:
      return !(a || b || c);
    case GateKind::kNand3:
      return !(a && b && c);
  }
  CHARLIE_ASSERT_MSG(false, "invalid gate kind");
  return false;
}

/// Zero-time boolean function of a gate (checked, span-based convenience).
bool eval_gate(GateKind kind, std::span<const bool> inputs);

class Circuit {
 public:
  using NetId = int;

  /// Declare a primary input net.
  NetId add_input(const std::string& name);

  /// Add a gate: zero-time boolean `kind` + SIS delay channel at the
  /// output. Returns the output net.
  NetId add_gate(GateKind kind, const std::string& output_name,
                 std::vector<NetId> inputs,
                 std::unique_ptr<SisChannel> channel);

  /// Add a gate carrying a native multi-input channel (MIS-aware); the
  /// channel arity must match the gate kind (e.g. a 3-input
  /// HybridGateChannel on kNor3/kNand3). sim::CircuitBuilder emits exactly
  /// these calls, so hand-wired and netlist-built circuits are bit-identical.
  NetId add_mis_gate(GateKind kind, const std::string& output_name,
                     std::vector<NetId> inputs,
                     std::unique_ptr<GateChannel> channel);

  NetId find_net(const std::string& name) const;
  const std::string& net_name(NetId id) const;
  std::size_t n_nets() const { return net_names_.size(); }
  std::size_t n_gates() const { return gates_.size(); }
  std::size_t n_inputs() const { return primary_inputs_.size(); }

  struct SimResult {
    std::vector<waveform::DigitalTrace> traces;  // indexed by NetId
    long n_events = 0;
    /// Peak event-heap occupancy over the run: how many gate firings were
    /// simultaneously scheduled. A cheap always-on observability counter
    /// (obs::MetricsRegistry aggregates it across batch runs and shards).
    long max_heap_depth = 0;
    /// kOk unless the run was terminated early (budget, deadline,
    /// cancellation, captured failure). A non-kOk result's traces are a
    /// valid prefix of the full run up to diagnostics.t_horizon.
    RunStatus status = RunStatus::kOk;
    RunDiagnostics diagnostics;

    bool ok() const { return status == RunStatus::kOk; }
    const waveform::DigitalTrace& trace(NetId id) const;
  };

  /// Simulate with `stimuli[i]` driving the i-th declared input (order of
  /// add_input calls), supervised by `budget` (default: no limits).
  ///
  /// Window convention: the simulated event window is (t_begin, t_end].
  /// The initial net values are the stimuli evaluated *at* t_begin
  /// (DigitalTrace transitions take effect at exactly their timestamp), so
  /// a stimulus transition at exactly t_begin is part of the steady-state
  /// initialization, not an event -- it appears in no trace and triggers no
  /// gate activity. Transitions after t_end are ignored; gate output events
  /// land in the result only if their (channel-delayed) time is <= t_end.
  ///
  /// Never throws for a run failure: a budget trip or a captured exception
  /// (ConvergenceError, AssertionError, injected fault) ends the run with a
  /// partial result whose status and diagnostics say what happened, so
  /// callers that treat a failure as fatal check ok(). An event-count trip
  /// stops after exactly budget.max_events events on every host.
  SimResult simulate(const std::vector<waveform::DigitalTrace>& stimuli,
                     double t_begin, double t_end,
                     const RunBudget& budget = RunBudget{});

  /// Number of declared primary inputs; input_net(i) is the NetId of the
  /// i-th declared input (stimulus order).
  NetId input_net(std::size_t i) const { return primary_inputs_[i]; }

  /// Output and input nets of gate `g`. Gates are numbered in construction
  /// order, which is a topological order: every input net exists before
  /// the gate reading it, so its driving gate (if any) has a lower index.
  NetId gate_output(std::size_t g) const { return gates_[g].output; }
  std::span<const NetId> gate_inputs(std::size_t g) const {
    return gates_[g].inputs;
  }

  /// Visit every native multi-input (MIS) channel, in gate construction
  /// order. Process-variation binding walks these to retarget channels
  /// between runs; mutating a channel mid-simulation is undefined.
  template <typename Fn>
  void for_each_mis_channel(Fn&& fn) {
    for (auto& gate : gates_) {
      if (gate.mis != nullptr) fn(*gate.mis);
    }
  }

  /// Visit every SIS delay channel, in gate construction order.
  template <typename Fn>
  void for_each_sis_channel(Fn&& fn) {
    for (auto& gate : gates_) {
      if (gate.sis != nullptr) fn(*gate.sis);
    }
  }

 private:
  friend class SimSession;
  struct Gate {
    GateKind kind = GateKind::kBuf;
    std::vector<NetId> inputs;
    NetId output = -1;
    // Exactly one of the two channels is set.
    std::unique_ptr<SisChannel> sis;
    std::unique_ptr<GateChannel> mis;
    // Simulation state (fixed arity <= kMaxGateArity, no heap-allocated
    // bitfield):
    std::array<bool, kMaxGateArity> in_values{};
    bool zero_time_value = false;  // boolean gate output (pre-channel)
  };

  NetId new_net(const std::string& name);

  std::vector<std::string> net_names_;
  std::unordered_map<std::string, NetId> net_ids_;
  std::vector<NetId> primary_inputs_;
  std::vector<Gate> gates_;
  std::vector<std::vector<std::pair<std::size_t, int>>> fanout_;
  // fanout_[net] = list of (gate index, port)
};

}  // namespace charlie::sim
