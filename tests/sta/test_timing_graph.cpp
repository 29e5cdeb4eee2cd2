// sta::TimingGraph semantics on hand-built netlists with known SIS delays:
// arrival sums, unateness (including non-unate XOR), required/slack against
// a deadline (never negative without one), endpoint fallback, wire arcs in
// the graph, exact top-K path enumeration (against brute force, and on an
// exactly tied path family), and the degenerate (deterministic) SSTA pass.
#include "sta/timing_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "sim/process_variation.hpp"
#include "sta/report.hpp"

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

const NetTiming& timing_of(const TimingResult& result,
                           const std::string& net) {
  for (const NetTiming& t : result.nets) {
    if (t.net == net) return t;
  }
  ADD_FAILURE() << "net " << net << " missing from the timing table";
  static const NetTiming none;
  return none;
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

  const NetTiming& b = timing_of(result, "b");
  EXPECT_NEAR(b.arrival_rise, 10e-12, 1e-18);
  EXPECT_NEAR(b.arrival_fall, 20e-12, 1e-18);
  // c falls when b rises (INV): 10 + 7; c rises when b falls: 20 + 5.
  const NetTiming& c = timing_of(result, "c");
  EXPECT_NEAR(c.arrival_fall, 17e-12, 1e-18);
  EXPECT_NEAR(c.arrival_rise, 25e-12, 1e-18);
  // d falls when c rises (INV): 25 + 7; d rises when c falls: 17 + 5.
  const NetTiming& d = timing_of(result, "d");
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

  const NetTiming& d = timing_of(result, "d");
  EXPECT_NEAR(d.required_rise, 36e-12, 1e-18);
  EXPECT_NEAR(d.required_fall, 36e-12, 1e-18);
  EXPECT_NEAR(d.slack, 4e-12, 1e-18);
  // Backward through the chain: a rising reaches d rising after 22 ps, a
  // falling reaches d falling after 32 ps.
  const NetTiming& a = timing_of(result, "a");
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
  EXPECT_NEAR(timing_of(xr, "x").arrival_rise, 7e-12 + 3e-12, 1e-18);
  EXPECT_NEAR(timing_of(xr, "x").arrival_fall, 7e-12 + 4e-12, 1e-18);

  const TimingGraph ag = make_graph(
      "input(a, b)\n"
      "INV(n, a)\n"
      "AND2(x, n, b)\n"
      "output(x)\n");
  const TimingResult ar = ag.analyze(ag.nominal_arcs(), 0.0);
  // AND2 rising only sees n rising (5 ps), not n falling (7 ps).
  EXPECT_NEAR(timing_of(ar, "x").arrival_rise, 5e-12 + 1e-12, 1e-18);
  EXPECT_NEAR(timing_of(ar, "x").arrival_fall, 7e-12 + 2e-12, 1e-18);
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
  EXPECT_NEAR(timing_of(result, "w").arrival_rise, 10e-12 + step_rise,
              1e-18);
  EXPECT_NEAR(timing_of(result, "w").arrival_fall, 20e-12 + step_fall,
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
    const sim::GateKind kind = library.spec(desc.instances[g].cell).kind;
    const bool positive = kind == sim::GateKind::kBuf ||
                          kind == sim::GateKind::kAnd2 ||
                          kind == sim::GateKind::kOr2 ||
                          kind == sim::GateKind::kXor2;
    const bool negative = !positive || kind == sim::GateKind::kXor2;
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
  for (const NetTiming& t : result.nets) {
    EXPECT_GE(t.slack, 0.0) << t.net;
  }
  EXPECT_EQ(timing_of(result, "a").slack, 0.0);

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

}  // namespace
}  // namespace charlie::sta
