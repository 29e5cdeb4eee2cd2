#include "sta/timing_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "sim/circuit_builder.hpp"
#include "util/error.hpp"

namespace charlie::sta {

TimingGraph::Unate TimingGraph::unateness(sim::GateKind kind) {
  switch (kind) {
    case sim::GateKind::kBuf:  // and wires, which are emitted as kBuf
    case sim::GateKind::kAnd2:
    case sim::GateKind::kOr2:
      return Unate::kPositive;
    case sim::GateKind::kXor2:
      return Unate::kNon;
    default:
      return Unate::kNegative;
  }
}

TimingGraph::TimingGraph(const cell::NetlistDesc& desc,
                         std::shared_ptr<const cell::CellLibrary> library)
    : library_(std::move(library)) {
  const sim::CircuitBuilder builder(library_);
  const sim::NetlistTopology topo = builder.analyze_topology(desc);
  const std::size_t n_inputs = desc.inputs.size();
  const std::size_t n_gates = desc.instances.size();
  const std::size_t n_elems = n_gates + desc.wires.size();
  // The topology's net ids are this graph's: primary inputs first, then
  // element outputs in element order (analyze_topology bounds them by
  // 2^31, so the 32-bit (fall, rise) slots below cannot overflow).
  const std::size_t n_nets = n_inputs + n_elems;
  net_names_.reserve(n_nets);
  for (std::size_t n = 0; n < n_nets; ++n) {
    net_names_.push_back(sim::NetlistTopology::net_name(desc, n));
  }

  // One arc per input pin, in element order: the topology's pin layout,
  // which every arc set shares through the offsets of nominal_arcs_.
  std::vector<std::size_t>& offsets = nominal_arcs_.offsets;
  offsets = topo.input_begin;
  const std::vector<int>& fanin = topo.input_net;  // input net per arc
  std::vector<Unate> unate(n_elems);
  for (std::size_t e = 0; e < n_elems; ++e) {
    unate[e] = unateness(sim::NetlistTopology::is_wire(desc, e)
                             ? sim::GateKind::kBuf
                             : topo.specs[e]->kind);
    const std::size_t arity = offsets[e + 1] - offsets[e];
    CHARLIE_ASSERT_MSG(arity >= 1 && arity <= sim::kMaxGateArity,
                       "timing graph: element arity out of range");
  }
  const std::size_t n_arcs = fanin.size();
  if (n_arcs > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError("timing graph: netlist exceeds 2^32 arcs");
  }

  // Endpoints: the observed nets. Declared outputs come resolved from the
  // topology; the one fallback net is found by name.
  endpoints_ = cell::observed_nets(desc);
  std::vector<int> endpoint_nets = topo.output_net;
  if (endpoint_nets.empty()) {
    const auto it =
        std::find(net_names_.begin(), net_names_.end(), endpoints_.front());
    endpoint_nets.push_back(static_cast<int>(it - net_names_.begin()));
  }
  endpoint_ids_.assign(endpoint_nets.begin(), endpoint_nets.end());

  // Sweep schedule: a counting sort of the elements by (level, unateness,
  // arity), stable in element order -- three unateness classes, arity 1 to
  // kMaxGateArity. Level 0 reads primary inputs only; every other element
  // sits one level past its deepest driver.
  std::vector<std::size_t> key(n_elems);
  std::size_t n_keys = 0;
  {
    std::vector<std::size_t> level(n_elems, 0);
    for (const int te : topo.order) {
      const auto e = static_cast<std::size_t>(te);
      for (std::size_t a = offsets[e]; a < offsets[e + 1]; ++a) {
        const auto net = static_cast<std::size_t>(fanin[a]);
        if (net >= n_inputs) {
          level[e] = std::max(level[e], level[net - n_inputs] + 1);
        }
      }
      const std::size_t arity = offsets[e + 1] - offsets[e];
      key[e] = (level[e] * 3 + static_cast<std::size_t>(unate[e])) *
                   sim::kMaxGateArity +
               arity - 1;
      n_keys = std::max(n_keys, key[e] + 1);
    }
  }
  std::vector<std::size_t> first(n_keys + 1, 0);
  for (std::size_t e = 0; e < n_elems; ++e) ++first[key[e] + 1];
  for (std::size_t k = 0; k < n_keys; ++k) first[k + 1] += first[k];
  std::vector<std::size_t> element_at(n_elems);
  for (std::size_t e = 0; e < n_elems; ++e) element_at[first[key[e]]++] = e;

  schedule_.resize(n_elems);
  pins_.reserve(n_arcs);
  driver_.assign(n_nets, -1);
  for (std::size_t p = 0; p < n_elems; ++p) {
    const std::size_t e = element_at[p];
    Step& step = schedule_[p];
    const std::size_t out = n_inputs + e;
    step.out = static_cast<std::uint32_t>(2 * out);
    step.first_pin = static_cast<std::uint32_t>(pins_.size());
    step.unate = unate[e];
    step.n_pins = static_cast<std::uint8_t>(offsets[e + 1] - offsets[e]);
    for (std::size_t a = offsets[e]; a < offsets[e + 1]; ++a) {
      pins_.push_back({2 * static_cast<std::uint32_t>(fanin[a]),
                       static_cast<std::uint32_t>(a)});
    }
    driver_[out] = static_cast<std::int32_t>(p);
  }

  // Each gate's cell as an index into specs(), which at_corner preserves,
  // so a corner library resolves the same cells without name lookups.
  const std::vector<cell::CellSpec>& specs = library_->specs();
  std::vector<bool> used(specs.size(), false);
  cell_of_.resize(n_gates);
  for (std::size_t g = 0; g < n_gates; ++g) {
    const auto c = static_cast<std::size_t>(topo.specs[g] - specs.data());
    CHARLIE_ASSERT_MSG(c < specs.size(), "timing graph: foreign cell spec");
    cell_of_[g] = c;
    used[c] = true;
  }
  for (std::size_t c = 0; c < specs.size(); ++c) {
    if (used[c]) cells_.push_back(c);
  }

  // Wire arcs read the collapsed tables once: wires are process-independent,
  // so every arc set copies them from here.
  nominal_arcs_.rise.assign(n_arcs, 0.0);
  nominal_arcs_.fall.assign(n_arcs, 0.0);
  for (std::size_t w = 0; w < desc.wires.size(); ++w) {
    const auto tables = builder.wire_tables(desc.wires[w]);
    const std::size_t a = offsets[n_gates + w];
    nominal_arcs_.rise[a] = tables->step_delay(/*rising=*/true);
    nominal_arcs_.fall[a] = tables->step_delay(/*rising=*/false);
  }
  nominal_arcs_ = extract_arcs(*library_);
}

ArcSet TimingGraph::extract_arcs(const cell::CellLibrary& library) const {
  // One arc_table() evaluation per distinct cell: the envelope solves a
  // handful of crossing problems per cell, and a netlist instantiates each
  // cell many times.
  const std::vector<cell::CellSpec>& specs = library.specs();
  std::vector<cell::CellArcTable> tables(specs.size());
  for (const std::size_t c : cells_) {
    tables[c] = specs[c].arc_table();
    const auto arity = static_cast<std::size_t>(specs[c].arity);
    CHARLIE_ASSERT_MSG(tables[c].output_rise.size() == arity &&
                           tables[c].output_fall.size() == arity,
                       "timing graph: arc table does not match the cell");
  }
  ArcSet arcs;
  arcs.offsets = nominal_arcs_.offsets;
  arcs.rise.resize(pins_.size());
  arcs.fall.resize(pins_.size());
  double* rise = arcs.rise.data();
  double* fall = arcs.fall.data();
  for (const std::size_t c : cell_of_) {
    const cell::CellArcTable& t = tables[c];
    rise = std::copy(t.output_rise.begin(), t.output_rise.end(), rise);
    fall = std::copy(t.output_fall.begin(), t.output_fall.end(), fall);
  }
  // Wires (elements after the gates) keep their nominal arcs.
  const std::size_t wires = arcs.offsets[cell_of_.size()];
  std::copy(nominal_arcs_.rise.begin() + static_cast<std::ptrdiff_t>(wires),
            nominal_arcs_.rise.end(), rise);
  std::copy(nominal_arcs_.fall.begin() + static_cast<std::ptrdiff_t>(wires),
            nominal_arcs_.fall.end(), fall);
  return arcs;
}

ArcSet TimingGraph::arcs_at(const core::ProcessPoint& point) const {
  if (point.is_nominal()) return nominal_arcs_;
  return extract_arcs(library_->at_corner(point));
}

template <typename V>
void TimingGraph::check_arcs(const FlatArcs<V>& arcs) const {
  CHARLIE_ASSERT_MSG(arcs.n_elements() == schedule_.size() &&
                         arcs.rise.size() == pins_.size() &&
                         arcs.fall.size() == pins_.size(),
                     "timing graph: arc set does not match the netlist");
}

template <typename Visit>
void TimingGraph::for_each_arc(const Step& step, bool out_rising,
                               Visit&& visit) const {
  const bool same = step.unate != Unate::kNegative;
  const bool opposite = step.unate != Unate::kPositive;
  const Pin* pin = pins_.data() + step.first_pin;
  for (const Pin* end = pin + step.n_pins; pin != end; ++pin) {
    if (same) visit(pin->arc, pin->slot + (out_rising ? 1 : 0));
    if (opposite) visit(pin->arc, pin->slot + (out_rising ? 0 : 1));
  }
}

// Forward sweep: each output transition takes the max of its arcs' sums in
// for_each_arc order, keeping the first of equal ones. Every primary input
// arrives at 0 in both directions.
std::vector<double> TimingGraph::arrivals(const ArcSet& arcs) const {
  check_arcs(arcs);
  std::vector<double> at(2 * net_names_.size(), 0.0);
  const double* rise = arcs.rise.data();
  const double* fall = arcs.fall.data();
  for (const Step& step : schedule_) {
    const Pin* pin = pins_.data() + step.first_pin;
    const Pin* const end = pin + step.n_pins;
    double f = 0.0;
    double r = 0.0;
    switch (step.unate) {
      case Unate::kPositive:
        f = at[pin->slot] + fall[pin->arc];
        r = at[pin->slot + 1] + rise[pin->arc];
        for (++pin; pin != end; ++pin) {
          f = std::max(f, at[pin->slot] + fall[pin->arc]);
          r = std::max(r, at[pin->slot + 1] + rise[pin->arc]);
        }
        break;
      case Unate::kNegative:
        f = at[pin->slot + 1] + fall[pin->arc];
        r = at[pin->slot] + rise[pin->arc];
        for (++pin; pin != end; ++pin) {
          f = std::max(f, at[pin->slot + 1] + fall[pin->arc]);
          r = std::max(r, at[pin->slot] + rise[pin->arc]);
        }
        break;
      case Unate::kNon:
        f = at[pin->slot] + fall[pin->arc];
        r = at[pin->slot + 1] + rise[pin->arc];
        f = std::max(f, at[pin->slot + 1] + fall[pin->arc]);
        r = std::max(r, at[pin->slot] + rise[pin->arc]);
        for (++pin; pin != end; ++pin) {
          f = std::max(f, at[pin->slot] + fall[pin->arc]);
          r = std::max(r, at[pin->slot + 1] + rise[pin->arc]);
          f = std::max(f, at[pin->slot + 1] + fall[pin->arc]);
          r = std::max(r, at[pin->slot] + rise[pin->arc]);
        }
        break;
    }
    at[step.out] = f;
    at[step.out + 1] = r;
  }
  return at;
}

TimingResult TimingGraph::analyze(const ArcSet& arcs, double deadline) const {
  const std::vector<double> at = arrivals(arcs);

  TimingResult res;
  bool first = true;
  for (std::size_t i = 0; i < endpoint_ids_.size(); ++i) {
    const std::size_t slot = 2 * std::size_t{endpoint_ids_[i]};
    for (const bool rising : {true, false}) {
      const double a = at[slot + (rising ? 1 : 0)];
      if (first || a > res.critical_delay) {
        res.critical_delay = a;
        res.critical_endpoint = endpoints_[i];
        res.critical_rising = rising;
        first = false;
      }
    }
  }

  // Slack backward from the endpoints. An arc adds its edge slack
  // arr(out) - (arr(in) + arc): arr(out) is the max of exactly those sums,
  // so the edge slack is >= 0 in floating point and 0 on the arc that set
  // arr(out). With a deadline of 0 (slack against the critical delay
  // itself) every slack is therefore >= 0 and the critical path's is 0;
  // back-computing required times as req - arc instead rounds below zero.
  // A net's slack is a min over its fanout edges, so the sweep order is
  // free here too; nets outside every endpoint's cone keep +infinity.
  const double target = deadline > 0.0 ? deadline : res.critical_delay;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> slack(at.size(), inf);
  for (const std::uint32_t id : endpoint_ids_) {
    slack[2 * id] = target - at[2 * id];
    slack[2 * id + 1] = target - at[2 * id + 1];
  }
  const double* rise = arcs.rise.data();
  const double* fall = arcs.fall.data();
  const auto relax = [&](std::uint32_t in, double s, double arr_out,
                         double arc) {
    slack[in] = std::min(slack[in], s + (arr_out - (at[in] + arc)));
  };
  for (auto it = schedule_.rbegin(); it != schedule_.rend(); ++it) {
    const Step& step = *it;
    const double sf = slack[step.out];
    const double sr = slack[step.out + 1];
    const double af = at[step.out];
    const double ar = at[step.out + 1];
    const Pin* pin = pins_.data() + step.first_pin;
    const Pin* const end = pin + step.n_pins;
    switch (step.unate) {
      case Unate::kPositive:
        for (; pin != end; ++pin) {
          relax(pin->slot, sf, af, fall[pin->arc]);
          relax(pin->slot + 1, sr, ar, rise[pin->arc]);
        }
        break;
      case Unate::kNegative:
        for (; pin != end; ++pin) {
          relax(pin->slot + 1, sf, af, fall[pin->arc]);
          relax(pin->slot, sr, ar, rise[pin->arc]);
        }
        break;
      case Unate::kNon:
        for (; pin != end; ++pin) {
          relax(pin->slot, sf, af, fall[pin->arc]);
          relax(pin->slot + 1, sr, ar, rise[pin->arc]);
          relax(pin->slot + 1, sf, af, fall[pin->arc]);
          relax(pin->slot, sr, ar, rise[pin->arc]);
        }
        break;
    }
  }

  res.nets.resize(net_names_.size());
  res.worst_slack = inf;
  for (std::size_t n = 0; n < res.nets.size(); ++n) {
    NetTiming& t = res.nets[n];
    t.arrival_rise = at[2 * n + 1];
    t.arrival_fall = at[2 * n];
    t.required_rise = at[2 * n + 1] + slack[2 * n + 1];
    t.required_fall = at[2 * n] + slack[2 * n];
    t.slack = std::min(slack[2 * n + 1], slack[2 * n]);
    if (std::isfinite(t.slack)) {
      res.worst_slack = std::min(res.worst_slack, t.slack);
    }
  }
  if (!std::isfinite(res.worst_slack)) res.worst_slack = 0.0;
  return res;
}

std::vector<CriticalPath> TimingGraph::critical_paths(const ArcSet& arcs,
                                                      std::size_t k) const {
  std::vector<CriticalPath> out;
  if (k == 0) return out;

  const std::vector<double> at = arrivals(arcs);

  // Deviation (sidetrack) search. Read backward from its endpoint, a path
  // chooses one arc into every transition it passes. The greedy choice is
  // the arc whose sum set the transition's arrival (the first maximum the
  // forward sweep keeps); every other arc is a sidetrack. A path is named
  // by its endpoint and the sidetracks it takes, and completing any tail
  // greedily gives its longest path: the greedy head reaches the tail's
  // first transition at exactly that transition's arrival, which bounds
  // every other head, and floating-point addition is monotone. Each heap
  // entry is such a tail, keyed by that exact completion delay; popping
  // one completes its path and queues every sidetrack the completion
  // passes. A sidetrack's completion never beats its parent's, so paths
  // come out in exact non-increasing delay order, each exactly once.
  //
  // Path nodes live in one arena: a transition slot, the arc from it to
  // the next transition toward the endpoint, and that transition's node.
  constexpr std::size_t kEndpoint = std::numeric_limits<std::size_t>::max();
  struct Node {
    std::uint32_t slot = 0;          // 2 * net + rising
    std::size_t parent = kEndpoint;  // node toward the endpoint
    double arc = 0.0;  // delay of the arc into the parent's transition
  };
  struct Entry {
    double delay = 0.0;  // exact delay of the greedy completion
    std::size_t node = 0;
  };
  // Max-heap on delay; equal delays pop in node creation order.
  const auto below = [](const Entry& a, const Entry& b) {
    return a.delay < b.delay || (a.delay == b.delay && a.node > b.node);
  };
  std::vector<Node> arena;
  std::vector<Entry> heap;
  const auto push = [&](const Node& node, double delay) {
    arena.push_back(node);
    heap.push_back({delay, arena.size() - 1});
    std::push_heap(heap.begin(), heap.end(), below);
  };
  // A path's delay is its arcs summed input first -- the forward sweep's
  // own summation order, so the greedy head sums to exactly its arrival.
  const auto completion = [&](const Node& node) {
    double t = at[node.slot] + node.arc;
    for (std::size_t i = node.parent; arena[i].parent != kEndpoint;
         i = arena[i].parent) {
      t += arena[i].arc;
    }
    return t;
  };

  for (const std::uint32_t id : endpoint_ids_) {
    for (const std::uint32_t slot : {2 * id + 1, 2 * id}) {  // rise, fall
      push({slot, kEndpoint, 0.0}, at[slot]);
    }
  }
  while (out.size() < k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), below);
    const Entry entry = heap.back();
    heap.pop_back();

    // Complete greedily back to a primary input, queueing every sidetrack.
    std::size_t head = entry.node;
    while (true) {
      const std::uint32_t slot = arena[head].slot;
      const std::int32_t d = driver_[slot / 2];
      if (d < 0) break;
      const bool rising = (slot & 1U) != 0;
      const std::vector<double>& arc_of = rising ? arcs.rise : arcs.fall;
      std::size_t greedy = kEndpoint;
      for_each_arc(schedule_[static_cast<std::size_t>(d)], rising,
                   [&](std::uint32_t a, std::uint32_t in) {
                     const Node node{in, head, arc_of[a]};
                     if (greedy == kEndpoint && at[in] + node.arc == at[slot]) {
                       arena.push_back(node);
                       greedy = arena.size() - 1;
                     } else {
                       push(node, completion(node));
                     }
                   });
      CHARLIE_ASSERT_MSG(greedy != kEndpoint,
                         "timing graph: arrival not reproduced by any arc");
      head = greedy;
    }

    CriticalPath path;
    double t = 0.0;
    for (std::size_t i = head;; i = arena[i].parent) {
      const Node& node = arena[i];
      path.steps.push_back(
          {net_names_[node.slot / 2], (node.slot & 1U) != 0, t});
      if (node.parent == kEndpoint) break;
      t += node.arc;
    }
    CHARLIE_ASSERT_MSG(t == entry.delay,
                       "timing graph: path delay differs from its key");
    path.delay = t;
    out.push_back(std::move(path));
  }
  return out;
}

CanonicalArcSet TimingGraph::canonical_arcs(
    const sim::ProcessVariation& variation) const {
  variation.validate();
  CanonicalArcSet set;
  set.offsets = nominal_arcs_.offsets;
  set.rise.reserve(nominal_arcs_.rise.size());
  set.fall.reserve(nominal_arcs_.fall.size());
  for (const double d : nominal_arcs_.rise) {
    set.rise.push_back(Canonical::constant(d));
  }
  for (const double d : nominal_arcs_.fall) {
    set.fall.push_back(Canonical::constant(d));
  }

  const std::array<double, kNAxes> sigmas = {
      variation.vdd_sigma, variation.vth_sigma, variation.drive_sigma};
  for (std::size_t axis = 0; axis < kNAxes; ++axis) {
    if (sigmas[axis] <= 0.0) continue;
    core::ProcessPoint plus = core::ProcessPoint::nominal();
    core::ProcessPoint minus = core::ProcessPoint::nominal();
    switch (axis) {
      case 0:
        plus.vdd_scale = 1.0 + sigmas[axis];
        minus.vdd_scale = 1.0 - sigmas[axis];
        break;
      case 1:
        plus.vth_shift = sigmas[axis];
        minus.vth_shift = -sigmas[axis];
        break;
      default:
        plus.drive_scale = 1.0 + sigmas[axis];
        minus.drive_scale = 1.0 - sigmas[axis];
        break;
    }
    const ArcSet up = arcs_at(plus);
    const ArcSet down = arcs_at(minus);
    for (std::size_t a = 0; a < set.rise.size(); ++a) {
      set.rise[a].sens[axis] = 0.5 * (up.rise[a] - down.rise[a]);
      set.fall[a].sens[axis] = 0.5 * (up.fall[a] - down.fall[a]);
    }
  }
  return set;
}

Canonical TimingGraph::analyze_ssta(const CanonicalArcSet& arcs) const {
  // The schedule's order, each element's Clark joins in for_each_arc order:
  // the statistical max is neither associative nor commutative, so the
  // join order within an element is part of the result.
  check_arcs(arcs);
  std::vector<Canonical> at(2 * net_names_.size());
  for (const Step& step : schedule_) {
    for (const bool out_rising : {false, true}) {
      const std::vector<Canonical>& arc = out_rising ? arcs.rise : arcs.fall;
      Canonical best;
      bool has = false;
      for_each_arc(step, out_rising, [&](std::uint32_t a, std::uint32_t in) {
        Canonical cand = at[in] + arc[a];
        best = has ? statistical_max(best, cand) : cand;
        has = true;
      });
      at[step.out + (out_rising ? 1 : 0)] = best;
    }
  }
  Canonical worst;
  bool first = true;
  for (const std::uint32_t id : endpoint_ids_) {
    for (const std::uint32_t slot : {2 * id + 1, 2 * id}) {  // rise, fall
      worst = first ? at[slot] : statistical_max(worst, at[slot]);
      first = false;
    }
  }
  return worst;
}

}  // namespace charlie::sta
