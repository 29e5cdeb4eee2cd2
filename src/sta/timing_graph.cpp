#include "sta/timing_graph.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "sim/circuit_builder.hpp"
#include "util/error.hpp"

namespace charlie::sta {

namespace {

// Unateness of the supported gate kinds. "Same" feeds input rise into
// output rise (positive unate); "opposite" feeds input rise into output
// fall (negative unate). XOR is both (non-unate). Wires are emitted as
// kBuf, so they land in "same".
bool feeds_same(sim::GateKind kind) {
  switch (kind) {
    case sim::GateKind::kBuf:
    case sim::GateKind::kAnd2:
    case sim::GateKind::kOr2:
    case sim::GateKind::kXor2:
      return true;
    default:
      return false;
  }
}

bool feeds_opposite(sim::GateKind kind) {
  switch (kind) {
    case sim::GateKind::kInv:
    case sim::GateKind::kNand2:
    case sim::GateKind::kNor2:
    case sim::GateKind::kNand3:
    case sim::GateKind::kNor3:
    case sim::GateKind::kXor2:
      return true;
    default:
      return false;
  }
}

}  // namespace

TimingGraph::TimingGraph(const cell::NetlistDesc& desc,
                         std::shared_ptr<const cell::CellLibrary> library)
    : library_(std::move(library)) {
  const sim::CircuitBuilder builder(library_);
  const sim::NetlistTopology topo = builder.analyze_topology(desc);
  const std::size_t n_gates = desc.instances.size();
  const std::size_t n_elems = n_gates + desc.wires.size();

  std::unordered_map<std::string, int> net_index;
  auto add_net = [&](const std::string& name, int driver) {
    net_index.emplace(name, static_cast<int>(net_names_.size()));
    net_names_.push_back(name);
    driver_.push_back(driver);
  };
  const auto net_id = [&](const std::string& name) {
    const auto it = net_index.find(name);
    CHARLIE_ASSERT_MSG(it != net_index.end(), "timing graph: unknown net");
    return it->second;
  };
  for (const auto& name : desc.inputs) add_net(name, -1);
  for (std::size_t e = 0; e < n_elems; ++e) {
    add_net(sim::NetlistTopology::output_of(desc, e), static_cast<int>(e));
  }

  // One arc per input pin: the fan-in list and every arc set share the
  // offsets of nominal_arcs_.
  std::vector<std::size_t>& offsets = nominal_arcs_.offsets;
  offsets.assign(1, 0);
  offsets.reserve(n_elems + 1);
  elements_.resize(n_elems);
  for (std::size_t e = 0; e < n_elems; ++e) {
    Element& el = elements_[e];
    el.kind = sim::NetlistTopology::is_wire(desc, e) ? sim::GateKind::kBuf
                                                     : topo.specs[e]->kind;
    el.output = net_id(sim::NetlistTopology::output_of(desc, e));
    sim::NetlistTopology::for_each_input(
        desc, e, [&](const std::string& in) { fanin_.push_back(net_id(in)); });
    offsets.push_back(fanin_.size());
  }
  order_ = topo.order;

  endpoints_ = desc.outputs;
  if (endpoints_.empty() && !desc.instances.empty()) {
    endpoints_.push_back(desc.instances.back().output);
  }
  if (endpoints_.empty() && !desc.wires.empty()) {
    endpoints_.push_back(desc.wires.back().output);
  }
  endpoint_ids_.reserve(endpoints_.size());
  for (const auto& name : endpoints_) endpoint_ids_.push_back(net_id(name));

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
  // so every corner's arc set copies them from here.
  nominal_arcs_.rise.assign(fanin_.size(), 0.0);
  nominal_arcs_.fall.assign(fanin_.size(), 0.0);
  for (std::size_t w = 0; w < desc.wires.size(); ++w) {
    const auto tables = builder.wire_tables(desc.wires[w]);
    const std::size_t a = offsets[n_gates + w];
    nominal_arcs_.rise[a] = tables->step_delay(/*rising=*/true);
    nominal_arcs_.fall[a] = tables->step_delay(/*rising=*/false);
  }
  fill_gate_arcs(*library_, nominal_arcs_);
}

void TimingGraph::fill_gate_arcs(const cell::CellLibrary& library,
                                 ArcSet& arcs) const {
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
  for (std::size_t g = 0; g < cell_of_.size(); ++g) {
    const cell::CellArcTable& t = tables[cell_of_[g]];
    const auto at = static_cast<std::ptrdiff_t>(arcs.offsets[g]);
    std::copy(t.output_rise.begin(), t.output_rise.end(),
              arcs.rise.begin() + at);
    std::copy(t.output_fall.begin(), t.output_fall.end(),
              arcs.fall.begin() + at);
  }
}

ArcSet TimingGraph::arcs_at(const core::ProcessPoint& point) const {
  ArcSet arcs = nominal_arcs_;  // wire arcs stay nominal
  if (!point.is_nominal()) fill_gate_arcs(library_->at_corner(point), arcs);
  return arcs;
}

template <typename V>
void TimingGraph::check_arcs(const FlatArcs<V>& arcs) const {
  CHARLIE_ASSERT_MSG(arcs.n_elements() == elements_.size() &&
                         arcs.rise.size() == fanin_.size() &&
                         arcs.fall.size() == fanin_.size(),
                     "timing graph: arc set does not match the netlist");
}

template <typename Visit>
void TimingGraph::for_each_arc(std::size_t e, bool out_rising,
                               Visit&& visit) const {
  const bool same = feeds_same(elements_[e].kind);
  const bool opposite = feeds_opposite(elements_[e].kind);
  for (std::size_t a = nominal_arcs_.offsets[e];
       a < nominal_arcs_.offsets[e + 1]; ++a) {
    if (same) visit(a, fanin_[a], out_rising);
    if (opposite) visit(a, fanin_[a], !out_rising);
  }
}

// Generic forward pass: latest/statistical arrival per (net, direction)
// over the topological order; `join` merges competing contributions (max /
// statistical max) and keeps the first of equal ones. Every primary input
// arrives at V{} (time zero) in both directions.
template <typename V, typename Join>
void TimingGraph::propagate(const FlatArcs<V>& arcs, Join&& join,
                            std::vector<V>& rise,
                            std::vector<V>& fall) const {
  check_arcs(arcs);
  rise.assign(net_names_.size(), V{});
  fall.assign(net_names_.size(), V{});
  for (const int e : order_) {
    const auto el = static_cast<std::size_t>(e);
    for (const bool out_rising : {false, true}) {
      const std::vector<V>& arc = out_rising ? arcs.rise : arcs.fall;
      V best{};
      bool has = false;
      for_each_arc(el, out_rising, [&](std::size_t a, int in, bool in_rising) {
        V cand = (in_rising ? rise : fall)[static_cast<std::size_t>(in)] +
                 arc[a];
        best = has ? join(best, cand) : cand;
        has = true;
      });
      CHARLIE_ASSERT_MSG(has, "timing graph: element with no timing arc");
      (out_rising ? rise : fall)[static_cast<std::size_t>(
          elements_[el].output)] = best;
    }
  }
}

TimingResult TimingGraph::analyze(const ArcSet& arcs, double deadline) const {
  std::vector<double> rise;
  std::vector<double> fall;
  propagate<double>(
      arcs, [](double a, double b) { return std::max(a, b); }, rise, fall);

  TimingResult res;
  bool first = true;
  for (std::size_t i = 0; i < endpoint_ids_.size(); ++i) {
    const auto id = static_cast<std::size_t>(endpoint_ids_[i]);
    for (const bool rising : {true, false}) {
      const double a = rising ? rise[id] : fall[id];
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
  const double target = deadline > 0.0 ? deadline : res.critical_delay;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> slack_rise(net_names_.size(), inf);
  std::vector<double> slack_fall(net_names_.size(), inf);
  for (const int endpoint : endpoint_ids_) {
    const auto id = static_cast<std::size_t>(endpoint);
    slack_rise[id] = target - rise[id];
    slack_fall[id] = target - fall[id];
  }
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const auto e = static_cast<std::size_t>(*it);
    const auto out = static_cast<std::size_t>(elements_[e].output);
    for (const bool out_rising : {false, true}) {
      const double s = out_rising ? slack_rise[out] : slack_fall[out];
      if (!std::isfinite(s)) continue;
      const double arr_out = out_rising ? rise[out] : fall[out];
      const std::vector<double>& arc = out_rising ? arcs.rise : arcs.fall;
      for_each_arc(e, out_rising, [&](std::size_t a, int in, bool in_rising) {
        const auto i = static_cast<std::size_t>(in);
        const double arr_in = in_rising ? rise[i] : fall[i];
        double& t = in_rising ? slack_rise[i] : slack_fall[i];
        t = std::min(t, s + (arr_out - (arr_in + arc[a])));
      });
    }
  }

  res.nets.resize(net_names_.size());
  res.worst_slack = inf;
  for (std::size_t n = 0; n < net_names_.size(); ++n) {
    NetTiming& t = res.nets[n];
    t.net = net_names_[n];
    t.arrival_rise = rise[n];
    t.arrival_fall = fall[n];
    t.required_rise = rise[n] + slack_rise[n];
    t.required_fall = fall[n] + slack_fall[n];
    t.slack = std::min(slack_rise[n], slack_fall[n]);
    if (std::isfinite(t.slack)) res.worst_slack = std::min(res.worst_slack, t.slack);
  }
  if (!std::isfinite(res.worst_slack)) res.worst_slack = 0.0;
  return res;
}

std::vector<CriticalPath> TimingGraph::critical_paths(const ArcSet& arcs,
                                                      std::size_t k) const {
  std::vector<CriticalPath> out;
  if (k == 0 || endpoint_ids_.empty()) return out;

  std::vector<double> rise;
  std::vector<double> fall;
  propagate<double>(
      arcs, [](double a, double b) { return std::max(a, b); }, rise, fall);
  const auto arrival = [&](int net, bool rising) {
    return (rising ? rise : fall)[static_cast<std::size_t>(net)];
  };

  // Deviation (sidetrack) search. Read backward from its endpoint, a path
  // chooses one arc into every transition it passes. The greedy choice is
  // the arc whose sum set the transition's arrival (the first maximum
  // propagate keeps); every other arc is a sidetrack. A path is named by
  // its endpoint and the sidetracks it takes, and completing any tail
  // greedily gives its longest path: the greedy head reaches the tail's
  // first transition at exactly that transition's arrival, which bounds
  // every other head, and floating-point addition is monotone. Each heap
  // entry is such a tail, keyed by that exact completion delay; popping
  // one completes its path and queues every sidetrack the completion
  // passes. A sidetrack's completion never beats its parent's, so paths
  // come out in exact non-increasing delay order, each exactly once.
  //
  // Path nodes live in one arena: a transition, the arc from it to the
  // next transition toward the endpoint, and that transition's node.
  constexpr std::size_t kEndpoint = std::numeric_limits<std::size_t>::max();
  struct Node {
    int net = -1;
    bool rising = true;
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
  // A path's delay is its arcs summed input first -- propagate's own
  // summation order, so the greedy head sums to exactly its arrival.
  const auto completion = [&](const Node& node) {
    double t = arrival(node.net, node.rising) + node.arc;
    for (std::size_t i = node.parent; arena[i].parent != kEndpoint;
         i = arena[i].parent) {
      t += arena[i].arc;
    }
    return t;
  };

  for (const int id : endpoint_ids_) {
    for (const bool rising : {true, false}) {
      push({id, rising, kEndpoint, 0.0}, arrival(id, rising));
    }
  }
  while (out.size() < k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), below);
    const Entry entry = heap.back();
    heap.pop_back();

    // Complete greedily back to a primary input, queueing every sidetrack.
    std::size_t head = entry.node;
    while (true) {
      const Node at = arena[head];
      const int d = driver_[static_cast<std::size_t>(at.net)];
      if (d < 0) break;
      const double arr = arrival(at.net, at.rising);
      std::size_t greedy = kEndpoint;
      for_each_arc(static_cast<std::size_t>(d), at.rising,
                   [&](std::size_t a, int in, bool in_rising) {
                     const double arc = (at.rising ? arcs.rise : arcs.fall)[a];
                     const Node node{in, in_rising, head, arc};
                     if (greedy == kEndpoint &&
                         arrival(in, in_rising) + arc == arr) {
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
          {net_names_[static_cast<std::size_t>(node.net)], node.rising, t});
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
  std::vector<Canonical> rise;
  std::vector<Canonical> fall;
  propagate<Canonical>(
      arcs,
      [](const Canonical& a, const Canonical& b) {
        return statistical_max(a, b);
      },
      rise, fall);
  Canonical worst;
  bool first = true;
  for (const int id : endpoint_ids_) {
    for (const bool rising : {true, false}) {
      const Canonical& a = rising ? rise[static_cast<std::size_t>(id)]
                                  : fall[static_cast<std::size_t>(id)];
      worst = first ? a : statistical_max(worst, a);
      first = false;
    }
  }
  return worst;
}

}  // namespace charlie::sta
