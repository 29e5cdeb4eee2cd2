// Reproduces the paper's Section VI runtime claim: the hybrid channel adds
// only a small overhead (paper: ~6 %) over inertial / Exp channels in
// event-driven simulation. google-benchmark microbenches of the per-event
// channel work, plus a whole-trace comparison.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <vector>

#include "core/gate_params.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/circuit.hpp"
#include "sim/exp_channel.hpp"
#include "sim/gate_models.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/run_channel.hpp"
#include "sim/run_guard.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace {

using namespace charlie;

waveform::DigitalTrace make_trace(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  waveform::TraceConfig cfg;
  cfg.mu = 150e-12;
  cfg.sigma = 60e-12;
  cfg.n_transitions = n;
  return waveform::generate_traces(cfg, 1, rng)[0];
}

const waveform::DigitalTrace& trace_a() {
  static const auto t = make_trace(1, 400);
  return t;
}
const waveform::DigitalTrace& trace_b() {
  static const auto t = make_trace(2, 400);
  return t;
}

double t_end() {
  return std::max(trace_a().transitions().back(),
                  trace_b().transitions().back()) +
         1e-9;
}

constexpr auto kNor = core::GateTopology::kNorLike;

sim::SisGateDelays sis_delays() { return {51e-12, 46e-12}; }

void BM_InertialNorTrace(benchmark::State& state) {
  for (auto _ : state) {
    auto gate = sim::make_inertial_gate(kNor, 2, sis_delays());
    const auto out =
        sim::run_gate_channel(*gate, trace_a(), trace_b(), 0.0, t_end());
    benchmark::DoNotOptimize(out.n_transitions());
  }
}
BENCHMARK(BM_InertialNorTrace);

void BM_ExpNorTrace(benchmark::State& state) {
  for (auto _ : state) {
    auto gate = sim::make_exp_gate(kNor, 2, sis_delays(), 20e-12);
    const auto out =
        sim::run_gate_channel(*gate, trace_a(), trace_b(), 0.0, t_end());
    benchmark::DoNotOptimize(out.n_transitions());
  }
}
BENCHMARK(BM_ExpNorTrace);

void BM_SumExpNorTrace(benchmark::State& state) {
  for (auto _ : state) {
    auto gate = sim::make_sumexp_gate(kNor, 2, sis_delays(), 20e-12);
    const auto out =
        sim::run_gate_channel(*gate, trace_a(), trace_b(), 0.0, t_end());
    benchmark::DoNotOptimize(out.n_transitions());
  }
}
BENCHMARK(BM_SumExpNorTrace);

void BM_HybridNorTrace(benchmark::State& state) {
  const auto params = core::GateParams::nor2_reference();
  for (auto _ : state) {
    sim::HybridGateChannel gate(params);
    const auto out =
        sim::run_gate_channel(gate, trace_a(), trace_b(), 0.0, t_end());
    benchmark::DoNotOptimize(out.n_transitions());
  }
}
BENCHMARK(BM_HybridNorTrace);

// Per-event costs: one input transition + pending query.
void BM_HybridSingleEvent(benchmark::State& state) {
  const auto params = core::GateParams::nor2_reference();
  sim::HybridGateChannel gate(params);
  gate.initialize(0.0, std::array{false, false});
  double t = 0.0;
  bool v = true;
  for (auto _ : state) {
    t += 1e-9;
    gate.on_input(t, 0, v);
    v = !v;
    benchmark::DoNotOptimize(gate.pending());
  }
}
BENCHMARK(BM_HybridSingleEvent);

// RunGuard overhead: the same hybrid-NOR workload through the engine's
// event loop with no budget vs. a fully armed (but never tripping) budget.
// The guard adds one compare per event plus a wall-clock poll every
// check_interval events; the pair of numbers documents that this is in the
// measurement noise (acceptance bar: < 2 %).
void BM_HybridCircuitTrace(benchmark::State& state) {
  const auto params = core::GateParams::nor2_reference();
  sim::Circuit circuit;
  const auto a = circuit.add_input("a");
  const auto b = circuit.add_input("b");
  circuit.add_mis_gate(sim::GateKind::kNor2, "out", {a, b},
                       std::make_unique<sim::HybridGateChannel>(params));
  const std::vector<waveform::DigitalTrace> stimuli{trace_a(), trace_b()};
  for (auto _ : state) {
    const auto out = circuit.simulate(stimuli, 0.0, t_end());
    if (!out.ok()) {
      state.SkipWithError(out.diagnostics.summary().c_str());
      break;
    }
    benchmark::DoNotOptimize(out.n_events);
  }
}
BENCHMARK(BM_HybridCircuitTrace);

void BM_HybridCircuitTraceGuarded(benchmark::State& state) {
  const auto params = core::GateParams::nor2_reference();
  sim::Circuit circuit;
  const auto a = circuit.add_input("a");
  const auto b = circuit.add_input("b");
  circuit.add_mis_gate(sim::GateKind::kNor2, "out", {a, b},
                       std::make_unique<sim::HybridGateChannel>(params));
  const std::vector<waveform::DigitalTrace> stimuli{trace_a(), trace_b()};
  sim::RunBudget budget;
  budget.max_events = 1'000'000'000;  // armed, never trips
  budget.max_wall_seconds = 3600.0;
  for (auto _ : state) {
    const auto out = circuit.simulate(stimuli, 0.0, t_end(), budget);
    if (!out.ok()) {
      state.SkipWithError(out.diagnostics.summary().c_str());
      break;
    }
    benchmark::DoNotOptimize(out.n_events);
  }
}
BENCHMARK(BM_HybridCircuitTraceGuarded);

// Observability overhead: the same workload with the trace recorder armed
// (per-advance spans into the per-thread ring). BM_HybridCircuitTrace is
// the disarmed baseline -- its loop already pays the one-branch armed()
// check, so the Trace/TraceInstrumented pair bounds both costs: disarmed
// instrumentation must be in the noise, armed recording stays small (one
// clock pair + ring store per window slice, not per event).
void BM_HybridCircuitTraceInstrumented(benchmark::State& state) {
  const auto params = core::GateParams::nor2_reference();
  sim::Circuit circuit;
  const auto a = circuit.add_input("a");
  const auto b = circuit.add_input("b");
  circuit.add_mis_gate(sim::GateKind::kNor2, "out", {a, b},
                       std::make_unique<sim::HybridGateChannel>(params));
  const std::vector<waveform::DigitalTrace> stimuli{trace_a(), trace_b()};
  obs::TraceRecorder::start();
  for (auto _ : state) {
    const auto out = circuit.simulate(stimuli, 0.0, t_end());
    if (!out.ok()) {
      state.SkipWithError(out.diagnostics.summary().c_str());
      break;
    }
    benchmark::DoNotOptimize(out.n_events);
  }
  obs::TraceRecorder::stop();
  state.counters["events_traced"] =
      static_cast<double>(obs::TraceRecorder::collect().events.size());
}
BENCHMARK(BM_HybridCircuitTraceInstrumented);

void BM_ExpSingleEvent(benchmark::State& state) {
  sim::ExpChannelParams p;
  p.delta_inf_up = 51e-12;
  p.delta_inf_down = 46e-12;
  p.delta_min = 20e-12;
  sim::ExpChannel ch(p);
  ch.initialize(0.0, false);
  double t = 0.0;
  bool v = true;
  for (auto _ : state) {
    t += 1e-9;
    ch.on_input(t, v);
    v = !v;
    benchmark::DoNotOptimize(ch.pending());
  }
}
BENCHMARK(BM_ExpSingleEvent);

}  // namespace

BENCHMARK_MAIN();
