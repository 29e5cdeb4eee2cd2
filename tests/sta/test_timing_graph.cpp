// sta::TimingGraph semantics on hand-built netlists with known SIS delays:
// arrival sums, unateness (including non-unate XOR), required/slack against
// a deadline (never negative without one), endpoint fallback and the
// no-endpoint error, wire arcs in the graph, exact top-K path enumeration
// (against brute force, and on an exactly tied path family), and the
// degenerate (deterministic) SSTA pass. On generated netlists: every
// analyze() field against a reference computed from the definitions, and
// results independent of the instance order. On the example, generated and
// wire-only netlists: endpoints equal to cell::observed_nets.
#include "sta/timing_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "cell/netlist_gen.hpp"
#include "sim/process_variation.hpp"
#include "sta/report.hpp"
#include "util/error.hpp"

namespace charlie::sta {
namespace {

// Reference library with round SIS delays on the non-hybrid cells so path
// sums are exact by construction: BUF 10/20 ps, INV 5/7 ps, AND2 1/2 ps,
// OR2 3/4 ps, XOR2 3/4 ps (rise/fall).
std::shared_ptr<const cell::CellLibrary> test_library() {
  static const auto library = [] {
    cell::CellLibrary lib = cell::CellLibrary::reference();
    lib.set_sis_delays("BUF", 10e-12, 20e-12);
    lib.set_sis_delays("INV", 5e-12, 7e-12);
    lib.set_sis_delays("AND2", 1e-12, 2e-12);
    lib.set_sis_delays("OR2", 3e-12, 4e-12);
    lib.set_sis_delays("XOR2", 3e-12, 4e-12);
    return std::make_shared<const cell::CellLibrary>(std::move(lib));
  }();
  return library;
}

TimingGraph make_graph(const std::string& text) {
  return TimingGraph(cell::parse_netlist(text), test_library());
}

// The row of `net`: rows are index-aligned with graph.nets().
const NetTiming& timing_of(const TimingGraph& graph,
                           const TimingResult& result,
                           const std::string& net) {
  const std::vector<std::string>& names = graph.nets();
  const auto it = std::find(names.begin(), names.end(), net);
  if (it == names.end() || result.nets.size() != names.size()) {
    ADD_FAILURE() << "net " << net << " missing from the timing table";
    static const NetTiming none;
    return none;
  }
  return result.nets[static_cast<std::size_t>(it - names.begin())];
}

// a -> BUF -> INV -> INV: arrivals are plain arc sums with the unateness
// flips of each stage (BUF positive, INV negative).
TEST(TimingGraph, ChainArrivalsSumTheArcs) {
  const TimingGraph graph = make_graph(
      "input(a)\n"
      "BUF(b, a)\n"
      "INV(c, b)\n"
      "INV(d, c)\n"
      "output(d)\n");
  const TimingResult result = graph.analyze(graph.nominal_arcs(), 0.0);

  const NetTiming& b = timing_of(graph, result, "b");
  EXPECT_NEAR(b.arrival_rise, 10e-12, 1e-18);
  EXPECT_NEAR(b.arrival_fall, 20e-12, 1e-18);
  // c falls when b rises (INV): 10 + 7; c rises when b falls: 20 + 5.
  const NetTiming& c = timing_of(graph, result, "c");
  EXPECT_NEAR(c.arrival_fall, 17e-12, 1e-18);
  EXPECT_NEAR(c.arrival_rise, 25e-12, 1e-18);
  // d falls when c rises (INV): 25 + 7; d rises when c falls: 17 + 5.
  const NetTiming& d = timing_of(graph, result, "d");
  EXPECT_NEAR(d.arrival_rise, 22e-12, 1e-18);
  EXPECT_NEAR(d.arrival_fall, 32e-12, 1e-18);

  EXPECT_NEAR(result.critical_delay, 32e-12, 1e-18);
  EXPECT_EQ(result.critical_endpoint, "d");
  EXPECT_FALSE(result.critical_rising);
  // Unconstrained: slack is measured against the critical delay itself.
  EXPECT_NEAR(result.worst_slack, 0.0, 1e-18);
}

TEST(TimingGraph, DeadlineSetsRequiredTimesAndSlack) {
  const TimingGraph graph = make_graph(
      "input(a)\n"
      "BUF(b, a)\n"
      "INV(c, b)\n"
      "INV(d, c)\n"
      "output(d)\n");
  const TimingResult result =
      graph.analyze(graph.nominal_arcs(), 36e-12);

  const NetTiming& d = timing_of(graph, result, "d");
  EXPECT_NEAR(d.required_rise, 36e-12, 1e-18);
  EXPECT_NEAR(d.required_fall, 36e-12, 1e-18);
  EXPECT_NEAR(d.slack, 4e-12, 1e-18);
  // Backward through the chain: a rising reaches d rising after 22 ps, a
  // falling reaches d falling after 32 ps.
  const NetTiming& a = timing_of(graph, result, "a");
  EXPECT_NEAR(a.required_rise, 36e-12 - 22e-12, 1e-18);
  EXPECT_NEAR(a.required_fall, 36e-12 - 32e-12, 1e-18);
  EXPECT_NEAR(a.slack, 4e-12, 1e-18);
  EXPECT_NEAR(result.worst_slack, 4e-12, 1e-18);

  // A deadline tighter than the critical delay goes negative.
  const TimingResult late = graph.analyze(graph.nominal_arcs(), 25e-12);
  EXPECT_NEAR(late.worst_slack, -7e-12, 1e-18);
}

// XOR feeds BOTH input directions into both output directions; the same
// netlist with AND2 (positive unate) sees only the matching direction.
TEST(TimingGraph, XorIsNonUnate) {
  const TimingGraph xg = make_graph(
      "input(a, b)\n"
      "INV(n, a)\n"
      "XOR2(x, n, b)\n"
      "output(x)\n");
  const TimingResult xr = xg.analyze(xg.nominal_arcs(), 0.0);
  // n arrives rise 5 / fall 7 ps; XOR rise arcs take the LATER direction.
  EXPECT_NEAR(timing_of(xg, xr, "x").arrival_rise, 7e-12 + 3e-12, 1e-18);
  EXPECT_NEAR(timing_of(xg, xr, "x").arrival_fall, 7e-12 + 4e-12, 1e-18);

  const TimingGraph ag = make_graph(
      "input(a, b)\n"
      "INV(n, a)\n"
      "AND2(x, n, b)\n"
      "output(x)\n");
  const TimingResult ar = ag.analyze(ag.nominal_arcs(), 0.0);
  // AND2 rising only sees n rising (5 ps), not n falling (7 ps).
  EXPECT_NEAR(timing_of(ag, ar, "x").arrival_rise, 5e-12 + 1e-12, 1e-18);
  EXPECT_NEAR(timing_of(ag, ar, "x").arrival_fall, 7e-12 + 2e-12, 1e-18);
}

TEST(TimingGraph, EndpointsFallBackToTheLastInstanceOutput) {
  const TimingGraph declared = make_graph(
      "input(a)\n"
      "INV(x, a)\n"
      "INV(y, x)\n"
      "output(x)\n");
  EXPECT_EQ(declared.endpoints(), std::vector<std::string>{"x"});
  const TimingGraph fallback = make_graph(
      "input(a)\n"
      "INV(x, a)\n"
      "INV(y, x)\n");
  EXPECT_EQ(fallback.endpoints(), std::vector<std::string>{"y"});
}

TEST(TimingGraph, WireArcsEnterThePath) {
  const TimingGraph graph = make_graph(
      "input(a)\n"
      "BUF(b, a)\n"
      "WIRE(w, b, r=200, c=50e-15, tdrive=10e-12)\n"
      "output(w)\n");
  // Unified element order: the wire is element 1 (after the one gate).
  const ArcSet& arcs = graph.nominal_arcs();
  ASSERT_EQ(arcs.n_elements(), 2u);
  ASSERT_EQ(arcs.offsets, (std::vector<std::size_t>{0, 1, 2}));
  const double step_rise = arcs.rise[arcs.offsets[1]];
  const double step_fall = arcs.fall[arcs.offsets[1]];
  EXPECT_GT(step_rise, 0.0);
  const TimingResult result = graph.analyze(arcs, 0.0);
  EXPECT_NEAR(timing_of(graph, result, "w").arrival_rise, 10e-12 + step_rise,
              1e-18);
  EXPECT_NEAR(timing_of(graph, result, "w").arrival_fall, 20e-12 + step_fall,
              1e-18);
}

TEST(TimingGraph, CriticalPathsComeOutInExactDecreasingOrder) {
  const TimingGraph graph = make_graph(
      "input(a, b)\n"
      "BUF(p, a)\n"
      "BUF(q1, b)\n"
      "BUF(q, q1)\n"
      "AND2(y, p, q)\n"
      "output(y)\n");
  // Element order p, q1, q, y (one arc per pin; y's pins are p, q). A
  // path's delay is its arcs summed input first, so each expected value is
  // that sum, bit for bit:
  //   b falling via q1, q : 20 + 20 + 2 = 42 ps
  //   a falling via p     : 20      + 2 = 22 ps
  //   b rising  via q1, q : 10 + 10 + 1 = 21 ps
  //   a rising  via p     : 10      + 1 = 11 ps
  const ArcSet& arcs = graph.nominal_arcs();
  ASSERT_EQ(arcs.offsets, (std::vector<std::size_t>{0, 1, 2, 3, 5}));
  const double b_fall = arcs.fall[1] + arcs.fall[2] + arcs.fall[4];
  const double a_fall = arcs.fall[0] + arcs.fall[3];
  const double b_rise = arcs.rise[1] + arcs.rise[2] + arcs.rise[4];
  const double a_rise = arcs.rise[0] + arcs.rise[3];
  const auto paths = graph.critical_paths(arcs, 10);
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[0].delay, b_fall);
  EXPECT_EQ(paths[1].delay, a_fall);
  EXPECT_EQ(paths[2].delay, b_rise);
  EXPECT_EQ(paths[3].delay, a_rise);
  EXPECT_NEAR(paths[0].delay, 42e-12, 1e-18);
  EXPECT_NEAR(paths[1].delay, 22e-12, 1e-18);
  EXPECT_NEAR(paths[2].delay, 21e-12, 1e-18);
  EXPECT_NEAR(paths[3].delay, 11e-12, 1e-18);
  EXPECT_EQ(paths[0].delay, graph.analyze(arcs, 0.0).critical_delay);

  // The winner's steps: b v @ 0 -> q1 v @ 20 -> q v @ 40 -> y v @ 42, each
  // time the running input-first sum.
  const CriticalPath& top = paths[0];
  ASSERT_EQ(top.steps.size(), 4u);
  EXPECT_EQ(top.steps[0].net, "b");
  EXPECT_EQ(top.steps[1].net, "q1");
  EXPECT_EQ(top.steps[2].net, "q");
  EXPECT_EQ(top.steps[3].net, "y");
  for (const PathStep& step : top.steps) EXPECT_FALSE(step.rising);
  EXPECT_EQ(top.steps[0].t, 0.0);
  EXPECT_EQ(top.steps[1].t, arcs.fall[1]);
  EXPECT_EQ(top.steps[2].t, arcs.fall[1] + arcs.fall[2]);
  EXPECT_EQ(top.steps[3].t, b_fall);
  EXPECT_NEAR(top.steps[1].t, 20e-12, 1e-18);
  EXPECT_NEAR(top.steps[2].t, 40e-12, 1e-18);

  // k truncates without reordering.
  const auto top2 = graph.critical_paths(arcs, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].delay, b_fall);
  EXPECT_EQ(top2[1].delay, a_fall);
}

// 20 BUF/BUF -> AND2 diamonds in a row: 2^20 paths per direction, every
// one of a direction summing the same arcs in the same order. The top 5
// share one delay exactly; the search must still return 5 distinct paths.
TEST(TimingGraph, TiedPathFamilyYieldsDistinctTopPaths) {
  std::ostringstream text;
  text << "input(x0)\n";
  for (int i = 0; i < 20; ++i) {
    text << "BUF(a" << i << ", x" << i << ")\n"
         << "BUF(b" << i << ", x" << i << ")\n"
         << "AND2(x" << i + 1 << ", a" << i << ", b" << i << ")\n";
  }
  text << "output(x20)\n";
  const TimingGraph graph = make_graph(text.str());
  const ArcSet& arcs = graph.nominal_arcs();
  const double critical = graph.analyze(arcs, 0.0).critical_delay;

  const auto paths = graph.critical_paths(arcs, 5);
  ASSERT_EQ(paths.size(), 5u);
  std::set<std::vector<std::pair<std::string, bool>>> distinct;
  for (const CriticalPath& path : paths) {
    EXPECT_EQ(path.delay, critical);
    ASSERT_EQ(path.steps.size(), 41u);
    EXPECT_EQ(path.steps.front().net, "x0");
    EXPECT_EQ(path.steps.back().net, "x20");
    std::vector<std::pair<std::string, bool>> sequence;
    for (const PathStep& step : path.steps) {
      sequence.emplace_back(step.net, step.rising);
    }
    distinct.insert(std::move(sequence));
  }
  EXPECT_EQ(distinct.size(), 5u);
}

// Unateness from the definition: {feeds the same direction, feeds the
// opposite direction}. Wires are positive unate.
std::pair<bool, bool> unateness(sim::GateKind kind) {
  const bool positive = kind == sim::GateKind::kBuf ||
                        kind == sim::GateKind::kAnd2 ||
                        kind == sim::GateKind::kOr2 ||
                        kind == sim::GateKind::kXor2;
  return {positive, !positive || kind == sim::GateKind::kXor2};
}

// Every input-to-endpoint path of a gate-only netlist by exhaustive
// depth-first search, each delay summed input first; sorted descending.
std::vector<double> all_path_delays(const cell::NetlistDesc& desc,
                                    const cell::CellLibrary& library,
                                    const ArcSet& arcs,
                                    const std::vector<std::string>& endpoints) {
  EXPECT_TRUE(desc.wires.empty());
  std::map<std::string, std::size_t> driver;
  for (std::size_t g = 0; g < desc.instances.size(); ++g) {
    driver[desc.instances[g].output] = g;
  }
  std::vector<double> delays;
  std::vector<double> tail;  // arcs from the endpoint backward
  const auto walk = [&](const auto& self, const std::string& net,
                        bool rising) -> void {
    const auto it = driver.find(net);
    if (it == driver.end()) {
      double t = 0.0;
      for (auto arc = tail.rbegin(); arc != tail.rend(); ++arc) t += *arc;
      delays.push_back(t);
      return;
    }
    const std::size_t g = it->second;
    const auto [positive, negative] =
        unateness(library.spec(desc.instances[g].cell).kind);
    for (std::size_t p = 0; p < desc.instances[g].inputs.size(); ++p) {
      const std::size_t a = arcs.offsets[g] + p;
      tail.push_back(rising ? arcs.rise[a] : arcs.fall[a]);
      if (positive) self(self, desc.instances[g].inputs[p], rising);
      if (negative) self(self, desc.instances[g].inputs[p], !rising);
      tail.pop_back();
    }
  };
  for (const std::string& endpoint : endpoints) {
    for (const bool rising : {true, false}) walk(walk, endpoint, rising);
  }
  std::sort(delays.begin(), delays.end(), std::greater<>());
  return delays;
}

// The search against brute force: for every k, the returned delays are
// exactly the k largest of the full path enumeration, in order.
TEST(TimingGraph, TopPathsMatchExhaustiveEnumeration) {
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const std::string dir = std::string(CHARLIE_SOURCE_DIR) + "/examples/netlists/";
  struct Case {
    const char* name;
    cell::NetlistDesc desc;
    std::size_t n_paths;
  };
  const Case cases[] = {
      {"c17", cell::read_netlist_file(dir + "c17.net"), 12},
      {"mixed_tree", cell::read_netlist_file(dir + "mixed_tree.net"), 44},
      // Non-unate XOR arcs: a sidetrack can be the other input direction
      // of the same pin. Two endpoints, 24 + 8 paths.
      {"xor", cell::parse_netlist("input(a, b, c)\n"
                                  "INV(n1, a)\n"
                                  "XOR2(n2, n1, b)\n"
                                  "OR2(n3, n2, c)\n"
                                  "XOR2(n4, n3, n1)\n"
                                  "BUF(y, n4)\n"
                                  "output(y, n2)\n"),
       32},
  };
  for (const Case& c : cases) {
    const TimingGraph graph(c.desc, library);
    const ArcSet& arcs = graph.nominal_arcs();
    const std::vector<double> expected =
        all_path_delays(c.desc, *library, arcs, graph.endpoints());
    ASSERT_EQ(expected.size(), c.n_paths) << c.name;
    EXPECT_EQ(expected.front(), graph.analyze(arcs, 0.0).critical_delay)
        << c.name;
    for (std::size_t k = 1; k <= c.n_paths + 1; ++k) {
      const auto paths = graph.critical_paths(arcs, k);
      ASSERT_EQ(paths.size(), std::min(k, c.n_paths)) << c.name << " k=" << k;
      for (std::size_t i = 0; i < paths.size(); ++i) {
        EXPECT_EQ(paths[i].delay, expected[i]) << c.name << " k=" << k
                                               << " path " << i;
        EXPECT_EQ(paths[i].steps.back().t, paths[i].delay) << c.name;
      }
    }
  }
}

// Regression: with no deadline, slack is measured against the critical
// delay itself and can never go negative. Back-computing required times
// as (required - arc) rounded this chain's input slack to -2^-95 s, and
// an unconstrained report then failed its own deadline.
TEST(TimingGraph, UnconstrainedSlackIsNeverNegative) {
  cell::CellLibrary lib = cell::CellLibrary::reference();
  lib.set_sis_delays("BUF", 0.1e-12, 0.1e-12);
  lib.set_sis_delays("INV", 0.7e-12, 0.7e-12);
  const auto library = std::make_shared<const cell::CellLibrary>(std::move(lib));
  const cell::NetlistDesc desc = cell::parse_netlist(
      "input(a)\n"
      "BUF(b, a)\n"
      "INV(c, b)\n"
      "output(c)\n");
  const TimingGraph graph(desc, library);
  const TimingResult result = graph.analyze(graph.nominal_arcs(), 0.0);
  EXPECT_EQ(result.worst_slack, 0.0);
  ASSERT_EQ(result.nets.size(), graph.nets().size());
  for (std::size_t n = 0; n < result.nets.size(); ++n) {
    EXPECT_GE(result.nets[n].slack, 0.0) << graph.nets()[n];
  }
  EXPECT_EQ(timing_of(graph, result, "a").slack, 0.0);

  StaOptions options;
  options.n_paths = 1;
  const Report report = sta::analyze(desc, library, options);
  EXPECT_EQ(report.nominal.worst_slack, 0.0);
  EXPECT_TRUE(report.meets_deadline());
}

TEST(TimingGraph, DisabledVariationSstaDegeneratesToTheCriticalDelay) {
  const TimingGraph graph = make_graph(
      "input(a, b)\n"
      "BUF(p, a)\n"
      "BUF(q1, b)\n"
      "BUF(q, q1)\n"
      "AND2(y, p, q)\n"
      "output(y)\n");
  const sim::ProcessVariation off;  // all sigmas 0
  const Canonical delay = graph.analyze_ssta(graph.canonical_arcs(off));
  EXPECT_NEAR(delay.mean, 42e-12, 1e-18);
  EXPECT_DOUBLE_EQ(delay.sigma(), 0.0);
}

// Regression: a netlist with nothing to time used to build a graph whose
// analyze() named an empty critical endpoint, and the corner tally of
// sta::analyze then escaped as std::out_of_range.
TEST(TimingGraph, NetlistWithoutEndpointIsAConfigError) {
  const cell::NetlistDesc desc = cell::parse_netlist(
      "input(a)\n"
      "input(b)\n");
  EXPECT_THROW(TimingGraph(desc, test_library()), ConfigError);
  // The graph's error is the observed-net rule's, word for word.
  std::string rule_error;
  std::string graph_error;
  try {
    cell::observed_nets(desc);
  } catch (const ConfigError& e) {
    rule_error = e.what();
  }
  try {
    TimingGraph(desc, test_library());
  } catch (const ConfigError& e) {
    graph_error = e.what();
  }
  EXPECT_FALSE(rule_error.empty());
  EXPECT_EQ(graph_error, rule_error);

  StaOptions options;
  options.n_corners = 4;
  options.variation.vdd_sigma = 0.02;
  EXPECT_THROW(sta::analyze(desc, test_library(), options), ConfigError);
}

// analyze() straight from the definitions, for one arc set: the arrival
// of a transition is the max over its arcs in pin order (same direction
// before the opposite one), its slack the min over its fanout edges of the
// edge slack arr(out) - (arr(in) + arc) plus the fanout transition's slack,
// and target - arrival at an endpoint. Memoized recursion over net names,
// indexed like graph.nets().
struct ReferenceTiming {
  std::vector<double> arrival[2];  // [rising][net]
  std::vector<double> slack[2];    // [rising][net]
  double critical_delay = 0.0;
  std::string critical_endpoint;
  bool critical_rising = true;
};

ReferenceTiming reference_timing(const cell::NetlistDesc& desc,
                                 const cell::CellLibrary& library,
                                 const TimingGraph& graph, const ArcSet& arcs,
                                 double deadline) {
  const std::vector<std::string>& names = graph.nets();
  std::map<std::string, std::size_t> id;
  for (std::size_t n = 0; n < names.size(); ++n) id[names[n]] = n;

  // Elements in the ArcSet layout: gates in netlist order, then wires.
  struct Element {
    std::size_t out = 0;
    std::vector<std::size_t> inputs;
    bool same = true;
    bool opposite = false;
  };
  std::vector<Element> elements;
  for (const cell::NetlistInstance& inst : desc.instances) {
    Element el;
    el.out = id.at(inst.output);
    for (const std::string& in : inst.inputs) el.inputs.push_back(id.at(in));
    std::tie(el.same, el.opposite) = unateness(library.spec(inst.cell).kind);
    elements.push_back(std::move(el));
  }
  for (const cell::NetlistWire& wire : desc.wires) {
    elements.push_back({id.at(wire.output), {id.at(wire.input)}, true, false});
  }
  std::vector<int> driver(names.size(), -1);
  struct Edge {
    std::size_t element;
    std::size_t arc;
  };
  std::vector<std::vector<Edge>> fanout(names.size());
  for (std::size_t e = 0; e < elements.size(); ++e) {
    driver[elements[e].out] = static_cast<int>(e);
    for (std::size_t p = 0; p < elements[e].inputs.size(); ++p) {
      fanout[elements[e].inputs[p]].push_back({e, arcs.offsets[e] + p});
    }
  }
  const auto arc = [&](std::size_t a, bool out_rising) {
    return out_rising ? arcs.rise[a] : arcs.fall[a];
  };

  ReferenceTiming ref;
  const double unset = std::numeric_limits<double>::quiet_NaN();
  for (const bool r : {false, true}) {
    ref.arrival[r].assign(names.size(), unset);
    ref.slack[r].assign(names.size(), unset);
  }
  const auto arrival = [&](const auto& self, std::size_t n,
                           bool rising) -> double {
    double& memo = ref.arrival[rising][n];
    if (!std::isnan(memo)) return memo;
    if (driver[n] < 0) return memo = 0.0;
    const Element& el = elements[static_cast<std::size_t>(driver[n])];
    double best = 0.0;
    bool first = true;
    for (std::size_t p = 0; p < el.inputs.size(); ++p) {
      const std::size_t a =
          arcs.offsets[static_cast<std::size_t>(driver[n])] + p;
      for (const bool in_rising : {rising, !rising}) {
        if (in_rising == rising ? !el.same : !el.opposite) continue;
        const double cand =
            self(self, el.inputs[p], in_rising) + arc(a, rising);
        best = first ? cand : std::max(best, cand);
        first = false;
      }
    }
    return memo = best;
  };
  for (std::size_t n = 0; n < names.size(); ++n) {
    for (const bool r : {false, true}) arrival(arrival, n, r);
  }

  bool first = true;
  for (const std::string& endpoint : graph.endpoints()) {
    for (const bool rising : {true, false}) {
      const double a = ref.arrival[rising][id.at(endpoint)];
      if (first || a > ref.critical_delay) {
        ref.critical_delay = a;
        ref.critical_endpoint = endpoint;
        ref.critical_rising = rising;
        first = false;
      }
    }
  }
  const double target = deadline > 0.0 ? deadline : ref.critical_delay;
  const std::set<std::string> endpoints(graph.endpoints().begin(),
                                        graph.endpoints().end());
  const auto slack = [&](const auto& self, std::size_t n,
                         bool rising) -> double {
    double& memo = ref.slack[rising][n];
    if (!std::isnan(memo)) return memo;
    double s = std::numeric_limits<double>::infinity();
    if (endpoints.count(names[n]) > 0) s = target - ref.arrival[rising][n];
    for (const Edge& edge : fanout[n]) {
      const Element& el = elements[edge.element];
      for (const bool out_rising : {rising, !rising}) {
        if (out_rising == rising ? !el.same : !el.opposite) continue;
        const double arr_out = ref.arrival[out_rising][el.out];
        s = std::min(s, self(self, el.out, out_rising) +
                            (arr_out - (ref.arrival[rising][n] +
                                        arc(edge.arc, out_rising))));
      }
    }
    return memo = s;
  };
  for (std::size_t n = 0; n < names.size(); ++n) {
    for (const bool r : {false, true}) slack(slack, n, r);
  }
  return ref;
}

cell::NetlistDesc generated_netlist(std::uint64_t seed) {
  cell::NetlistGenConfig config;
  config.n_gates = 2000;
  config.wire_fraction = 0.05;
  config.seed = seed;
  return cell::generate_netlist(config);
}

sim::ProcessVariation screen_variation() {
  sim::ProcessVariation v;
  v.vdd_sigma = 0.05;
  v.vth_sigma = 0.02;
  v.drive_sigma = 0.05;
  return v;
}

TEST(TimingGraph, AnalyzeMatchesReferenceOnGeneratedNetlists) {
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const sim::ProcessVariation variation = screen_variation();
  for (const std::uint64_t seed : {1, 2, 3}) {
    const cell::NetlistDesc desc = generated_netlist(seed);
    std::set<std::string> cells;
    for (const auto& inst : desc.instances) cells.insert(inst.cell);
    ASSERT_TRUE(cells.count("XOR2") > 0 && cells.count("NAND3") > 0 &&
                !desc.wires.empty())
        << "seed " << seed << " misses a feature under test";
    const TimingGraph graph(desc, library);
    const std::vector<std::string>& names = graph.nets();

    std::vector<ArcSet> arc_sets = {graph.nominal_arcs()};
    for (std::size_t c = 0; c < 4; ++c) {
      arc_sets.push_back(graph.arcs_at(variation.sample(1, c)));
    }
    for (std::size_t point = 0; point < arc_sets.size(); ++point) {
      const ArcSet& arcs = arc_sets[point];
      const double critical = graph.analyze(arcs, 0.0).critical_delay;
      for (const double deadline : {0.0, 1.1 * critical}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " point " +
                     std::to_string(point) +
                     (deadline > 0.0 ? " deadline 1.1x critical"
                                     : " no deadline"));
        const TimingResult result = graph.analyze(arcs, deadline);
        const ReferenceTiming ref =
            reference_timing(desc, *library, graph, arcs, deadline);
        ASSERT_EQ(result.nets.size(), names.size());
        double worst = std::numeric_limits<double>::infinity();
        for (std::size_t n = 0; n < names.size(); ++n) {
          const NetTiming& t = result.nets[n];
          const double sr = ref.slack[true][n];
          const double sf = ref.slack[false][n];
          EXPECT_EQ(t.arrival_rise, ref.arrival[true][n]) << names[n];
          EXPECT_EQ(t.arrival_fall, ref.arrival[false][n]) << names[n];
          EXPECT_EQ(t.required_rise, ref.arrival[true][n] + sr) << names[n];
          EXPECT_EQ(t.required_fall, ref.arrival[false][n] + sf) << names[n];
          EXPECT_EQ(t.slack, std::min(sr, sf)) << names[n];
          if (std::isfinite(t.slack)) worst = std::min(worst, t.slack);
        }
        EXPECT_EQ(result.critical_delay, ref.critical_delay);
        EXPECT_EQ(result.critical_endpoint, ref.critical_endpoint);
        EXPECT_EQ(result.critical_rising, ref.critical_rising);
        EXPECT_EQ(result.worst_slack, worst);
        // The worst slack sits at the critical endpoint, exactly.
        const double target = deadline > 0.0 ? deadline : critical;
        EXPECT_EQ(result.worst_slack, target - result.critical_delay);
        const auto paths = graph.critical_paths(arcs, 1);
        ASSERT_EQ(paths.size(), 1u);
        EXPECT_EQ(paths[0].delay, result.critical_delay);
      }
    }
  }
}

TEST(TimingGraph, ResultsDoNotDependOnInstanceOrder) {
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const cell::NetlistDesc desc = generated_netlist(1);
  cell::NetlistDesc reversed = desc;
  std::reverse(reversed.instances.begin(), reversed.instances.end());
  const TimingGraph graph(desc, library);
  const TimingGraph other(reversed, library);
  ASSERT_EQ(graph.endpoints(), other.endpoints());

  const TimingResult a = graph.analyze(graph.nominal_arcs(), 0.0);
  const TimingResult b = other.analyze(other.nominal_arcs(), 0.0);
  EXPECT_EQ(a.critical_delay, b.critical_delay);
  EXPECT_EQ(a.critical_endpoint, b.critical_endpoint);
  EXPECT_EQ(a.critical_rising, b.critical_rising);
  EXPECT_EQ(a.worst_slack, b.worst_slack);
  for (const std::string& net : graph.nets()) {
    const NetTiming& x = timing_of(graph, a, net);
    const NetTiming& y = timing_of(other, b, net);
    EXPECT_EQ(x.arrival_rise, y.arrival_rise) << net;
    EXPECT_EQ(x.arrival_fall, y.arrival_fall) << net;
    EXPECT_EQ(x.required_rise, y.required_rise) << net;
    EXPECT_EQ(x.required_fall, y.required_fall) << net;
    EXPECT_EQ(x.slack, y.slack) << net;
  }

  const sim::ProcessVariation variation = screen_variation();
  const Canonical x = graph.analyze_ssta(graph.canonical_arcs(variation));
  const Canonical y = other.analyze_ssta(other.canonical_arcs(variation));
  EXPECT_EQ(x.mean, y.mean);
  for (std::size_t axis = 0; axis < kNAxes; ++axis) {
    EXPECT_EQ(x.sens[axis], y.sens[axis]) << "axis " << axis;
  }
  EXPECT_EQ(x.sigma_rand, y.sigma_rand);
}

// The endpoints are the nets the drivers observe (cell::observed_nets):
// declared outputs, else the last instance's output, else the last wire's.
TEST(TimingGraph, EndpointsAreTheObservedNets) {
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const std::string dir = std::string(CHARLIE_SOURCE_DIR) + "/examples/netlists/";
  const cell::NetlistDesc wires = cell::parse_netlist(
      "input(a)\n"
      "WIRE(w1, a, r=12e3, c=2.5e-15)\n"
      "WIRE(w2, w1, r=8e3, c=1.5e-15)\n");
  EXPECT_EQ(cell::observed_nets(wires), std::vector<std::string>{"w2"});
  std::vector<std::pair<std::string, cell::NetlistDesc>> cases = {
      {"c17", cell::read_netlist_file(dir + "c17.net")},
      {"c432", cell::read_netlist_file(dir + "c432.net")},
      {"mixed_tree", cell::read_netlist_file(dir + "mixed_tree.net")},
      {"generated", generated_netlist(1)},
      {"wires only", wires},
  };
  for (std::size_t i = 0, n = cases.size(); i < n; ++i) {
    if (cases[i].second.outputs.empty()) continue;
    cell::NetlistDesc stripped = cases[i].second;
    stripped.outputs.clear();
    cases.emplace_back(cases[i].first + " without outputs", stripped);
  }
  for (const auto& [name, desc] : cases) {
    SCOPED_TRACE(name);
    const std::vector<std::string> observed = cell::observed_nets(desc);
    const TimingGraph graph(desc, library);
    EXPECT_EQ(graph.endpoints(), observed);
    if (desc.outputs.empty()) {
      // One fallback endpoint: the nominal critical path must end on it.
      ASSERT_EQ(observed.size(), 1u);
      EXPECT_EQ(graph.analyze(graph.nominal_arcs(), 0.0).critical_endpoint,
                observed.front());
    }
  }
}

}  // namespace
}  // namespace charlie::sta
