// Whole-circuit Monte-Carlo throughput: events/second through the indexed
// event heap, single-thread vs. worker-pool scaling, with shared
// GateModeTables across all gate instances. Complements the per-event
// channel microbenches in bench_runtime_overhead.cpp.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "core/gate_mode_tables.hpp"
#include "sim/batch_runner.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace {

using namespace charlie;

// A reconvergent mesh of MIS-aware NOR stages: inputs a, b feed a chain of
// NOR pairs so every stage sees real multi-input switching activity.
sim::CircuitFactory mesh_factory(int n_stages) {
  const auto tables =
      core::GateModeTables::make(core::GateParams::nor2_reference());
  return [tables, n_stages] {
    auto circuit = std::make_unique<sim::Circuit>();
    auto a = circuit->add_input("a");
    auto b = circuit->add_input("b");
    sim::Circuit::NetId x = a;
    sim::Circuit::NetId y = b;
    for (int s = 0; s < n_stages; ++s) {
      const auto nx = circuit->add_mis_gate(
          sim::GateKind::kNor2, "x" + std::to_string(s), {x, y},
          std::make_unique<sim::HybridGateChannel>(tables));
      const auto ny = circuit->add_mis_gate(
          sim::GateKind::kNor2, "y" + std::to_string(s), {y, x},
          std::make_unique<sim::HybridGateChannel>(tables));
      x = nx;
      y = ny;
    }
    circuit->add_mis_gate(sim::GateKind::kNor2, "out", {x, y},
                          std::make_unique<sim::HybridGateChannel>(tables));
    return circuit;
  };
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

// The runner (pool + per-worker circuit clones + trace arenas) is built
// once outside the timed loop: each iteration measures the steady-state
// batch, which is what scales with threads. Wall clock (UseRealTime) is
// the scaling headline; process CPU time exposes parallel overhead.
void BM_BatchThroughput(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  auto factory = mesh_factory(4);
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
BENCHMARK(BM_BatchThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Single simulate() call through the Circuit engine (heap + devirtualized
// eval), for tracking the engine overhead itself: circuit and stimuli are
// built once outside the timed loop, so no BatchRunner / ThreadPool /
// factory construction pollutes the counter.
void BM_CircuitMeshTrace(benchmark::State& state) {
  auto circuit = mesh_factory(4)();
  util::Rng rng(7);
  waveform::TraceConfig trace = batch_config(1, 1).trace;
  const auto stimuli =
      waveform::generate_traces(trace, circuit->n_inputs(), rng);
  double t_last = trace.t_start;
  for (const auto& t : stimuli) {
    if (!t.empty()) t_last = std::max(t_last, t.transitions().back());
  }
  const double t_end = t_last + 1e-9;
  long long events = 0;
  for (auto _ : state) {
    const auto result = circuit->simulate(stimuli, 0.0, t_end);
    if (!result.ok()) {
      state.SkipWithError(result.diagnostics.summary().c_str());
      break;
    }
    events += result.n_events;
    benchmark::DoNotOptimize(result.n_events);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CircuitMeshTrace);

}  // namespace

BENCHMARK_MAIN();
