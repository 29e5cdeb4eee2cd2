// Netlist-front-end throughput: a mixed-arity standard-cell netlist
// (NOR2/NOR3/NAND2/NAND3 hybrid channels) instantiated by
// sim::CircuitBuilder and driven through sim::BatchRunner -- the
// realistic-workload complement to the NOR-mesh numbers in
// bench_batch_throughput.cpp. Also tracks the front-end itself:
// parse + validate + instantiate cost per circuit clone, the parse of a
// 100k-gate generated netlist, and the event engine's cost per event on
// generated designs of growing size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "cell/netlist_gen.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace {

using namespace charlie;

// Same topology as examples/netlists/mixed_tree.net: 11 hybrid gates over
// all four characterized cells, reconvergent so every stage sees real MIS
// activity. Embedded so the bench binary runs from any directory.
constexpr const char* kMixedTree = R"(
input(a, b, c, d, e, f)
NOR2(g1, a, b)
NAND2(g2, b, c)
NOR3(g3, c, d, e)
NAND3(g4, d, e, f)
NOR2(g5, g1, g2)
NAND2(g6, g3, g4)
NOR3(g7, g1, g3, f)
NAND3(g8, g2, g4, a)
NOR2(g9, g5, g7)
NAND2(g10, g6, g8)
NOR2(out, g9, g10)
)";

std::shared_ptr<const cell::CellLibrary> shared_library() {
  // Reference cells (Table-I regime): the bench measures the engine and the
  // front-end, not substrate characterization.
  static const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  return library;
}

sim::BatchConfig batch_config(std::size_t n_runs, std::size_t n_threads) {
  sim::BatchConfig config;
  config.trace.mu = 150e-12;
  config.trace.sigma = 60e-12;
  config.trace.n_transitions = 200;
  config.n_runs = n_runs;
  config.base_seed = 7;
  config.n_threads = n_threads;
  return config;
}

// Monte-Carlo batches over the mixed netlist: events/second through the
// event heap with all four hybrid cell tables live at once. The runner
// (pool + per-worker clones) is constructed once outside the timed loop --
// the steady-state batch cost is the workload, not thread spin-up.
void BM_NetlistBatchThroughput(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  const auto desc = cell::parse_netlist(kMixedTree);
  const sim::CircuitBuilder builder(shared_library());
  auto factory = [&builder, &desc] { return builder.build(desc); };
  sim::BatchRunner runner(factory, "out", batch_config(16, n_threads));
  long long events = 0;
  for (auto _ : state) {
    const auto result = runner.run();
    events += result.total_events;
    benchmark::DoNotOptimize(result.total_events);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetlistBatchThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Front-end cost per worker clone: netlist validation + topological sort +
// channel instantiation against the shared library (the parse is excluded,
// matching the parse-once/build-many lifecycle of BatchRunner factories).
void BM_NetlistBuild(benchmark::State& state) {
  const auto desc = cell::parse_netlist(kMixedTree);
  const sim::CircuitBuilder builder(shared_library());
  for (auto _ : state) {
    auto circuit = builder.build(desc);
    benchmark::DoNotOptimize(circuit->n_gates());
  }
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * desc.n_gates()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetlistBuild);

// Text front door: parse + build together, for the file-driven entry path.
void BM_NetlistParseAndBuild(benchmark::State& state) {
  const sim::CircuitBuilder builder(shared_library());
  for (auto _ : state) {
    auto circuit = builder.build_text(kMixedTree);
    benchmark::DoNotOptimize(circuit->n_gates());
  }
}
BENCHMARK(BM_NetlistParseAndBuild);

// Netlist text to NetlistDesc for a generated design (gen_netlist seed 1,
// 2% RC wires) of range(0) gates: the parse layer of the file-driven
// front-end, without the file read. At 100k gates this is the netlist the
// perfbench 100k workloads parse.
void BM_GeneratedNetlistParse(benchmark::State& state) {
  cell::NetlistGenConfig gen;
  gen.n_gates = static_cast<std::size_t>(state.range(0));
  gen.seed = 1;
  gen.wire_fraction = 0.02;
  const std::string text = cell::write_netlist(cell::generate_netlist(gen));
  for (auto _ : state) {
    const cell::NetlistDesc desc = cell::parse_netlist(text);
    benchmark::DoNotOptimize(desc.instances.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_GeneratedNetlistParse)->Arg(100000)->Unit(benchmark::kMillisecond);

// Single-thread Circuit::simulate on a generated design (gen_netlist seed
// 1, 2% RC wires) of range(0) gates, driven like the shard_gen100k
// workload: 256 transitions per input, mu 150 ps, sigma 60 ps, stimulus
// seed 1. Build and stimuli stay outside the timed loop. ns/event weights
// the paper's channel: generated designs are ~56% hybrid MIS gates, where
// c432 is mostly inertial SIS gates. The 1k row is one block; the 25k and
// 100k rows run 5 and 17 blocks of at most Circuit::kGatesPerBlock gates
// one after another, so the 100k/1k ratio shows what the state layout
// costs beyond one block's cache-sized working set.
void BM_GeneratedNetlistSimulate(benchmark::State& state) {
  cell::NetlistGenConfig gen;
  gen.n_gates = static_cast<std::size_t>(state.range(0));
  gen.seed = 1;
  gen.wire_fraction = 0.02;
  const auto circuit =
      sim::CircuitBuilder(shared_library()).build(cell::generate_netlist(gen));
  waveform::TraceConfig trace;
  trace.mu = 150e-12;
  trace.sigma = 60e-12;
  trace.n_transitions = 256;
  util::Rng rng(1);
  const auto stimuli =
      waveform::generate_traces(trace, circuit->n_inputs(), rng);
  double t_last = trace.t_start;
  for (const auto& t : stimuli) {
    if (!t.empty()) t_last = std::max(t_last, t.transitions().back());
  }
  long long events = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = circuit->simulate(stimuli, 0.0, t_last + 1e-9);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    events += result.n_events;
    benchmark::DoNotOptimize(result.n_events);
  }
  state.counters["ns/event"] =
      events > 0 ? 1e9 * seconds / static_cast<double>(events) : 0.0;
}
BENCHMARK(BM_GeneratedNetlistSimulate)
    ->Arg(1000)
    ->Arg(25000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
