// SimSession as a building block: gate-range sessions over one circuit,
// fed through inject(), must reproduce the whole-circuit engine; and a
// fresh run must not reserve trace storage it never fills.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/run_guard.hpp"
#include "sim/sim_session.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace charlie {
namespace {

std::unique_ptr<sim::Circuit> build_c432() {
  static const auto library =
      std::make_shared<const cell::CellLibrary>(cell::CellLibrary::reference());
  static const cell::NetlistDesc desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  return sim::CircuitBuilder(library).build(desc);
}

std::vector<waveform::DigitalTrace> stimuli_for(std::size_t n_inputs) {
  waveform::TraceConfig config;
  config.mu = 150e-12;
  config.sigma = 60e-12;
  config.n_transitions = 40;
  util::Rng rng(17);
  return waveform::generate_traces(config, n_inputs, rng);
}

double t_end_for(const std::vector<waveform::DigitalTrace>& stimuli) {
  double t_last = 0.0;
  for (const auto& trace : stimuli) {
    if (!trace.empty()) t_last = std::max(t_last, trace.transitions().back());
  }
  return t_last + 2e-9;
}

TEST(SimSession, GateRangesFedThroughInjectReproduceMonolithic) {
  const auto mono_circuit = build_c432();
  const auto stimuli = stimuli_for(mono_circuit->n_inputs());
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);
  ASSERT_TRUE(mono.ok()) << mono.diagnostics.summary();

  // Two sessions over [0, m) and [m, n) of one circuit, advanced window by
  // window; between windows the upper one receives the lower one's new
  // transitions on every net it reads from below.
  const auto circuit = build_c432();
  const std::size_t n = circuit->n_gates();
  const std::size_t m = n / 2;
  std::set<sim::Circuit::NetId> lower_nets;
  for (std::size_t g = 0; g < m; ++g) {
    lower_nets.insert(circuit->gate_output(g));
  }
  std::vector<sim::Circuit::NetId> crossing;  // read above m, driven below
  for (std::size_t g = m; g < n; ++g) {
    for (const sim::Circuit::NetId net : circuit->gate_inputs(g)) {
      if (lower_nets.count(net) > 0 &&
          std::find(crossing.begin(), crossing.end(), net) ==
              crossing.end()) {
        crossing.push_back(net);
      }
    }
  }
  ASSERT_FALSE(crossing.empty());

  // Each session appends into a trace array of its own, both prepared for
  // the run, so every trace a session does not drive stays as prepared.
  sim::Circuit::SimResult lower_run;
  sim::Circuit::SimResult upper_run;
  circuit->prepare_run(stimuli, 0.0, t_end, lower_run);
  circuit->prepare_run(stimuli, 0.0, t_end, upper_run);
  sim::SimSession::Scratch lower_scratch;
  sim::SimSession::Scratch upper_scratch;
  sim::RunGuard guard(sim::RunBudget{});
  sim::SimSession lower(*circuit, 0, m, 0.0, lower_run.traces, lower_scratch,
                        guard);
  sim::SimSession upper(*circuit, m, n, 0.0, upper_run.traces, upper_scratch,
                        guard);
  std::vector<std::size_t> exported(crossing.size(), 0);
  const int n_windows = 7;
  for (int w = 1; w <= n_windows; ++w) {
    const double horizon =
        w == n_windows ? t_end : t_end * static_cast<double>(w) / n_windows;
    lower.advance(horizon);
    for (std::size_t i = 0; i < crossing.size(); ++i) {
      const waveform::DigitalTrace& produced = lower.trace(crossing[i]);
      for (; exported[i] < produced.n_transitions(); ++exported[i]) {
        upper.inject(crossing[i], produced.transitions()[exported[i]],
                     produced.is_rising(exported[i]));
      }
    }
    upper.advance(horizon);
  }

  for (std::size_t g = 0; g < n; ++g) {
    const sim::Circuit::NetId net = circuit->gate_output(g);
    const sim::SimSession& owner = g < m ? lower : upper;
    EXPECT_EQ(owner.trace(net).initial_value(),
              mono.trace(net).initial_value())
        << circuit->net_name(net);
    EXPECT_EQ(owner.trace(net).transitions(), mono.trace(net).transitions())
        << circuit->net_name(net);
  }
  // Partial ranges record only the nets their gates drive: the primary
  // inputs keep their prepared stimuli, and upstream nets their settled
  // values.
  for (std::size_t i = 0; i < circuit->n_inputs(); ++i) {
    const sim::Circuit::NetId net = circuit->input_net(i);
    EXPECT_EQ(lower.trace(net).transitions(), mono.trace(net).transitions());
  }
  for (std::size_t g = m; g < n; ++g) {
    EXPECT_TRUE(lower.trace(circuit->gate_output(g)).empty());
  }
  for (const sim::Circuit::NetId net : crossing) {
    EXPECT_TRUE(upper.trace(net).empty());
  }
  long n_stimulus = 0;
  for (std::size_t i = 0; i < circuit->n_inputs(); ++i) {
    n_stimulus += static_cast<long>(
        mono.trace(circuit->input_net(i)).n_transitions());
  }
  EXPECT_EQ(n_stimulus + lower.n_gate_events() + upper.n_gate_events(),
            mono.n_events);
  // The session over the first gates counts the primary inputs.
  EXPECT_EQ(lower.n_events(), n_stimulus + lower.n_gate_events());
  EXPECT_EQ(upper.n_events(), upper.n_gate_events());
}

TEST(SimSession, ScratchCarriesNothingFromOneSessionToTheNext) {
  // One Scratch serves a partial range, then the whole circuit with other
  // stimuli, then the first range again: each session matches a session
  // with a scratch of its own.
  const auto circuit = build_c432();
  const auto stimuli = stimuli_for(circuit->n_inputs());
  waveform::TraceConfig other;
  other.mu = 90e-12;
  other.sigma = 30e-12;
  other.n_transitions = 25;
  util::Rng rng(3);
  const auto other_stimuli =
      waveform::generate_traces(other, circuit->n_inputs(), rng);
  const double t_end = t_end_for(stimuli);
  const std::size_t n = circuit->n_gates();
  auto run = [&](std::size_t begin, std::size_t end,
                 const std::vector<waveform::DigitalTrace>& inputs,
                 sim::SimSession::Scratch& scratch) {
    sim::Circuit::SimResult result;
    circuit->prepare_run(inputs, 0.0, t_end, result);
    sim::RunGuard guard(sim::RunBudget{});
    sim::SimSession session(*circuit, begin, end, 0.0, result.traces, scratch,
                            guard);
    session.advance(t_end);
    session.add_to(result);
    return result;
  };
  sim::SimSession::Scratch shared;
  const struct {
    std::size_t begin, end;
    const std::vector<waveform::DigitalTrace>* inputs;
  } order[] = {{0, n / 2, &stimuli}, {0, n, &other_stimuli},
               {0, n / 2, &stimuli}};
  for (const auto& step : order) {
    sim::SimSession::Scratch own;
    const auto reused = run(step.begin, step.end, *step.inputs, shared);
    const auto fresh = run(step.begin, step.end, *step.inputs, own);
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(reused.n_events, fresh.n_events);
    EXPECT_EQ(reused.max_heap_depth, fresh.max_heap_depth);
    ASSERT_EQ(reused.traces.size(), fresh.traces.size());
    for (std::size_t net = 0; net < fresh.traces.size(); ++net) {
      EXPECT_EQ(reused.traces[net].initial_value(),
                fresh.traces[net].initial_value());
      EXPECT_EQ(reused.traces[net].transitions(),
                fresh.traces[net].transitions());
    }
  }
}

TEST(SimSession, FreshRunReservesNoIdleTraceStorage) {
  // Activity differs by orders of magnitude across nets, so a fresh run
  // must not pre-size every trace from the stimulus: geometric growth
  // leaves each trace at most twice its transition count.
  const auto circuit = build_c432();
  const auto stimuli = stimuli_for(circuit->n_inputs());
  const auto result = circuit->simulate(stimuli, 0.0, t_end_for(stimuli));
  ASSERT_TRUE(result.ok()) << result.diagnostics.summary();
  for (std::size_t net = 0; net < circuit->n_nets(); ++net) {
    const auto& trace = result.traces[net];
    EXPECT_LE(trace.transitions().capacity(), 2 * trace.n_transitions())
        << circuit->net_name(static_cast<sim::Circuit::NetId>(net));
  }
}

}  // namespace
}  // namespace charlie
