// Static-timing-analysis throughput: what a screening pass costs next to
// the Monte-Carlo batch it replaces.
//
// All rows run on generated netlists (cell::generate_netlist, the
// bench_sharded_throughput workload family) against the reference library:
//   * BM_StaGraphBuild:    netlist validation + nominal arc extraction (the
//                          one-time TimingGraph construction);
//   * BM_StaAnalyze:       one deterministic arrival/required/slack pass;
//   * BM_StaCriticalPaths: top-5 path enumeration (deviation search);
//   * BM_StaCorner:        one sampled corner -- at_corner library
//                          derivation, one arc table per distinct cell
//                          copied into the flat arc set, analysis (the
//                          per-corner marginal cost);
//   * BM_StaSsta:          one canonical SSTA pass over prebuilt canonical
//                          arcs (the whole-distribution query).
// The ledger tracks elements/s of BM_StaAnalyze: the screening pass must
// stay orders of magnitude cheaper than one event-driven run of the same
// netlist (bench_netlist_throughput) for the screen-then-simulate workflow
// to pay off. BM_StaAnalyze and BM_StaCorner also run at 100k gates, whose
// timing state no longer fits in L2: the rows where memory layout shows.
// BM_StaGraphBuild/100000 is the graph-build layer of the 100k front-end
// (BM_GeneratedNetlistParse/100000 in bench_netlist_throughput is its
// parse layer).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "cell/cell_library.hpp"
#include "cell/netlist_gen.hpp"
#include "sim/process_variation.hpp"
#include "sta/timing_graph.hpp"

namespace {

using namespace charlie;

cell::NetlistDesc bench_netlist(std::size_t n_gates) {
  cell::NetlistGenConfig config;
  config.n_gates = n_gates;
  config.seed = 7;
  return cell::generate_netlist(config);
}

std::shared_ptr<const cell::CellLibrary> bench_library() {
  static const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  return library;
}

sim::ProcessVariation bench_variation() {
  sim::ProcessVariation v;
  v.vdd_sigma = 0.02;
  v.vth_sigma = 0.01;
  v.drive_sigma = 0.03;
  return v;
}

void BM_StaGraphBuild(benchmark::State& state) {
  const auto n_gates = static_cast<std::size_t>(state.range(0));
  const cell::NetlistDesc desc = bench_netlist(n_gates);
  const auto library = bench_library();
  for (auto _ : state) {
    const sta::TimingGraph graph(desc, library);
    benchmark::DoNotOptimize(graph.nominal_arcs().n_elements());
  }
  state.counters["elements/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * (desc.n_gates() +
                                                desc.n_wires())),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StaGraphBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_StaAnalyze(benchmark::State& state) {
  const auto n_gates = static_cast<std::size_t>(state.range(0));
  const cell::NetlistDesc desc = bench_netlist(n_gates);
  const sta::TimingGraph graph(desc, bench_library());
  for (auto _ : state) {
    const sta::TimingResult res = graph.analyze(graph.nominal_arcs(), 0.0);
    benchmark::DoNotOptimize(res.critical_delay);
  }
  state.counters["elements/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * (desc.n_gates() +
                                                desc.n_wires())),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StaAnalyze)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_StaCriticalPaths(benchmark::State& state) {
  const auto n_gates = static_cast<std::size_t>(state.range(0));
  const cell::NetlistDesc desc = bench_netlist(n_gates);
  const sta::TimingGraph graph(desc, bench_library());
  for (auto _ : state) {
    const auto paths = graph.critical_paths(graph.nominal_arcs(), 5);
    benchmark::DoNotOptimize(paths.size());
  }
}
BENCHMARK(BM_StaCriticalPaths)->Arg(1000)->Arg(10000);

void BM_StaCorner(benchmark::State& state) {
  const auto n_gates = static_cast<std::size_t>(state.range(0));
  const cell::NetlistDesc desc = bench_netlist(n_gates);
  const sta::TimingGraph graph(desc, bench_library());
  const sim::ProcessVariation variation = bench_variation();
  std::uint64_t corner = 0;
  for (auto _ : state) {
    const sta::TimingResult res =
        graph.analyze(graph.arcs_at(variation.sample(7, corner++)), 0.0);
    benchmark::DoNotOptimize(res.critical_delay);
  }
}
BENCHMARK(BM_StaCorner)->Arg(1000)->Arg(100000);

void BM_StaSsta(benchmark::State& state) {
  const auto n_gates = static_cast<std::size_t>(state.range(0));
  const cell::NetlistDesc desc = bench_netlist(n_gates);
  const sta::TimingGraph graph(desc, bench_library());
  const sta::CanonicalArcSet arcs = graph.canonical_arcs(bench_variation());
  for (auto _ : state) {
    const sta::Canonical delay = graph.analyze_ssta(arcs);
    benchmark::DoNotOptimize(delay.mean);
  }
  state.counters["elements/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * (desc.n_gates() +
                                                desc.n_wires())),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StaSsta)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
