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

  sim::SimSession lower(*circuit, 0, m, stimuli, 0.0);
  sim::SimSession upper(*circuit, m, n, stimuli, 0.0);
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
  // Partial ranges record only the nets their gates drive.
  for (std::size_t i = 0; i < circuit->n_inputs(); ++i) {
    EXPECT_TRUE(lower.trace(circuit->input_net(i)).empty());
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
