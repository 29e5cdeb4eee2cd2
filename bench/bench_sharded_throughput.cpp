// Single-large-circuit scaling: one >= 100k-gate synthetic netlist
// (cell::generate_netlist, mixed SIS / hybrid-MIS cells plus RC wires)
// partitioned across workers by CircuitBuilder::build_sharded and
// simulated with the conservative windowed wavefront. Complements
// bench_batch_throughput.cpp, which scales across *independent* runs: here
// every worker cooperates on the same simulation, exchanging boundary
// events, and the result is bit-identical to the monolithic engine.
//
// Multi-threaded timing: wall clock (UseRealTime) is the scaling headline,
// process CPU time (MeasureProcessCPUTime) exposes the parallel overhead.
#include <benchmark/benchmark.h>

#include <memory>

#include "cell/cell_library.hpp"
#include "cell/netlist_gen.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/sharded_circuit.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace {

using namespace charlie;

constexpr std::size_t kGates = 100000;

const cell::NetlistDesc& big_netlist() {
  static const cell::NetlistDesc desc = [] {
    cell::NetlistGenConfig config;
    config.n_gates = kGates;
    config.n_inputs = 64;
    config.n_outputs = 32;
    config.wire_fraction = 0.02;
    config.seed = 7;
    return cell::generate_netlist(config);
  }();
  return desc;
}

const sim::CircuitBuilder& builder() {
  static const sim::CircuitBuilder b(std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference()));
  return b;
}

std::vector<waveform::DigitalTrace> stimuli() {
  waveform::TraceConfig config;
  config.mu = 150e-12;
  config.sigma = 60e-12;
  config.n_transitions = 60;
  util::Rng rng(7);
  return waveform::generate_traces(config, big_netlist().inputs.size(), rng);
}

void BM_ShardedCircuitThroughput(benchmark::State& state) {
  const auto n_shards = static_cast<std::size_t>(state.range(0));
  const auto n_threads = static_cast<std::size_t>(state.range(1));
  // Building and the worker pool live outside the timed loop, like netlist
  // parsing in a real front-end; the simulation is the workload. Every
  // completed simulate() re-cuts the shards on its measured events, so
  // after the first iteration the loop times the re-balanced cut.
  auto sharded = builder().build_sharded(big_netlist(), n_shards);
  const auto traces = stimuli();
  const double t_end = waveform::end_time(traces, 0.0, 2e-9);
  sim::ShardedSimConfig config;
  config.n_threads = n_threads;

  long long events = 0;
  for (auto _ : state) {
    const auto result = sharded->simulate(traces, 0.0, t_end, config);
    events += result.n_events;
    benchmark::DoNotOptimize(result.n_events);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["gates"] =
      benchmark::Counter(static_cast<double>(sharded->n_gates()));
  state.counters["boundary_edges"] =
      benchmark::Counter(static_cast<double>(sharded->n_boundary_edges()));
}
BENCHMARK(BM_ShardedCircuitThroughput)
    ->ArgNames({"shards", "threads"})
    ->Args({1, 1})
    ->Args({2, 2})
    ->Args({4, 4})
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
