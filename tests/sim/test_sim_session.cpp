// SimSession as a building block: gate-range sessions over one circuit,
// pulling from one run's traces, must reproduce the whole-circuit engine;
// a session must be a block of its locks, and pull() and advance() must
// keep their contract; and a fresh run must not reserve trace storage it
// never fills.
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
#include "util/error.hpp"
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
  return waveform::end_time(stimuli, 0.0, 2e-9);
}

// The nets gates [m, n) read from gates [0, m), each once.
std::vector<sim::Circuit::NetId> crossing_nets(const sim::Circuit& circuit,
                                               std::size_t m) {
  std::set<sim::Circuit::NetId> lower_nets;
  for (std::size_t g = 0; g < m; ++g) {
    lower_nets.insert(circuit.gate_output(g));
  }
  std::vector<sim::Circuit::NetId> crossing;
  for (std::size_t g = m; g < circuit.n_gates(); ++g) {
    for (const sim::Circuit::NetId net : circuit.gate_inputs(g)) {
      if (lower_nets.count(net) > 0 &&
          std::find(crossing.begin(), crossing.end(), net) ==
              crossing.end()) {
        crossing.push_back(net);
      }
    }
  }
  return crossing;
}

TEST(SimSession, GateRangesFedThroughPullReproduceMonolithic) {
  const auto mono_circuit = build_c432();
  const auto stimuli = stimuli_for(mono_circuit->n_inputs());
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);
  ASSERT_TRUE(mono.ok()) << mono.diagnostics.summary();

  // Two sessions over [0, m) and [m, n) of one circuit, appending into one
  // run's traces under the run's block locks and advanced window by
  // window; before each advance a session pulls what the other appended to
  // the nets it reads.
  const auto circuit = build_c432();
  const std::size_t n = circuit->n_gates();
  const std::size_t m = n / 2;
  const std::vector<sim::Circuit::NetId> crossing = crossing_nets(*circuit, m);
  ASSERT_FALSE(crossing.empty());

  sim::Circuit::SimResult run;
  circuit->prepare_run(stimuli, 0.0, t_end, run);
  sim::SimSession::Scratch lower_scratch;
  sim::SimSession::Scratch upper_scratch;
  sim::RunGuard guard(sim::RunBudget{});
  const std::vector<std::size_t> cut{0, m, n};
  sim::SimSession::BlockLocks locks(cut);
  sim::SimSession lower(*circuit, 0, m, 0.0, run.traces, lower_scratch,
                        guard, locks);
  sim::SimSession upper(*circuit, m, n, 0.0, run.traces, upper_scratch,
                        guard, locks);
  const int n_windows = 7;
  for (int w = 1; w <= n_windows; ++w) {
    const double horizon =
        w == n_windows ? t_end : t_end * static_cast<double>(w) / n_windows;
    lower.pull(horizon);
    lower.advance(horizon);
    // Partial ranges record only the nets their gates drive: until the
    // upper range first advances, its nets hold their settled values ...
    if (w == 1) {
      for (std::size_t g = m; g < n; ++g) {
        EXPECT_TRUE(run.traces[static_cast<std::size_t>(
                                   circuit->gate_output(g))]
                        .empty());
      }
    }
    // ... and the upper range leaves the nets it reads from below as the
    // lower range wrote them.
    std::vector<std::vector<double>> from_below;
    for (const sim::Circuit::NetId net : crossing) {
      from_below.push_back(upper.trace(net).transitions());
    }
    upper.pull(horizon);
    upper.advance(horizon);
    for (std::size_t i = 0; i < crossing.size(); ++i) {
      EXPECT_EQ(upper.trace(crossing[i]).transitions(), from_below[i]);
    }
  }

  for (std::size_t net = 0; net < circuit->n_nets(); ++net) {
    EXPECT_EQ(run.traces[net].initial_value(),
              mono.traces[net].initial_value())
        << circuit->net_name(static_cast<sim::Circuit::NetId>(net));
    EXPECT_EQ(run.traces[net].transitions(), mono.traces[net].transitions())
        << circuit->net_name(static_cast<sim::Circuit::NetId>(net));
  }
  // The upper range pulled every transition of the nets it reads from
  // below, once each; the session over the first gates reads only primary
  // inputs, which n_pulled() does not count.
  long from_lower = 0;
  for (const sim::Circuit::NetId net : crossing) {
    from_lower += static_cast<long>(mono.trace(net).n_transitions());
  }
  EXPECT_EQ(upper.n_pulled(), from_lower);
  EXPECT_EQ(lower.n_pulled(), 0);
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

TEST(SimSession, PullRejectsAnUpstreamTransitionAtOrBeforeTheHorizon) {
  // The upper range advances to h first; the lower range then appends
  // transitions at or before h, which the upper range can no longer
  // process in order.
  const auto circuit = build_c432();
  const auto stimuli = stimuli_for(circuit->n_inputs());
  const double t_end = t_end_for(stimuli);
  const double h = t_end / 2;
  const std::size_t n = circuit->n_gates();
  const std::size_t m = n / 2;
  sim::Circuit::SimResult run;
  circuit->prepare_run(stimuli, 0.0, t_end, run);
  sim::SimSession::Scratch lower_scratch;
  sim::SimSession::Scratch upper_scratch;
  sim::RunGuard guard(sim::RunBudget{});
  const std::vector<std::size_t> cut{0, m, n};
  sim::SimSession::BlockLocks locks(cut);
  sim::SimSession lower(*circuit, 0, m, 0.0, run.traces, lower_scratch,
                        guard, locks);
  sim::SimSession upper(*circuit, m, n, 0.0, run.traces, upper_scratch,
                        guard, locks);
  upper.pull(h);
  upper.advance(h);
  lower.pull(t_end);
  lower.advance(t_end);
  bool late = false;
  for (const sim::Circuit::NetId net : crossing_nets(*circuit, m)) {
    const waveform::DigitalTrace& trace =
        run.traces[static_cast<std::size_t>(net)];
    late = late || (!trace.empty() && trace.transitions().front() <= h);
  }
  ASSERT_TRUE(late);
  EXPECT_THROW(upper.pull(t_end), AssertionError);
}

TEST(SimSession, PullOnATerminatedSessionIsANoOp) {
  // The upper range trips its event budget on its way to t_end / 2; the
  // lower range, at t_end / 4 then, goes on to append transitions on both
  // sides of t_end / 2. A live session would reject those at or before
  // its horizon; the tripped one queues nothing and stays where it
  // stopped.
  const auto circuit = build_c432();
  const auto stimuli = stimuli_for(circuit->n_inputs());
  const double t_end = t_end_for(stimuli);
  const std::size_t n = circuit->n_gates();
  const std::size_t m = n / 2;
  sim::Circuit::SimResult run;
  circuit->prepare_run(stimuli, 0.0, t_end, run);
  sim::SimSession::Scratch lower_scratch;
  sim::SimSession::Scratch upper_scratch;
  sim::RunGuard unlimited(sim::RunBudget{});
  sim::RunBudget budget;
  budget.max_events = 1;
  sim::RunGuard tight(budget);
  const std::vector<std::size_t> cut{0, m, n};
  sim::SimSession::BlockLocks locks(cut);
  sim::SimSession lower(*circuit, 0, m, 0.0, run.traces, lower_scratch,
                        unlimited, locks);
  sim::SimSession upper(*circuit, m, n, 0.0, run.traces, upper_scratch,
                        tight, locks);
  lower.pull(t_end / 4);
  lower.advance(t_end / 4);
  upper.pull(t_end / 2);
  upper.advance(t_end / 2);
  ASSERT_EQ(upper.status(), sim::RunStatus::kBudgetExhausted);
  const long pulled = upper.n_pulled();
  const long events = upper.n_events();
  lower.pull(t_end);
  lower.advance(t_end);
  bool late = false;
  for (const sim::Circuit::NetId net : crossing_nets(*circuit, m)) {
    for (const double t : run.traces[static_cast<std::size_t>(net)]
                              .transitions()) {
      late = late || (t > t_end / 4 && t <= t_end / 2);
    }
  }
  ASSERT_TRUE(late);
  EXPECT_NO_THROW(upper.pull(t_end));
  EXPECT_EQ(upper.n_pulled(), pulled);
  upper.advance(t_end);
  EXPECT_EQ(upper.status(), sim::RunStatus::kBudgetExhausted);
  EXPECT_EQ(upper.n_events(), events);
}

TEST(SimSession, RangeThatIsNotABlockThrows) {
  const auto circuit = build_c432();
  const auto stimuli = stimuli_for(circuit->n_inputs());
  const std::size_t n = circuit->n_gates();
  const std::size_t m = n / 2;
  sim::Circuit::SimResult run;
  circuit->prepare_run(stimuli, 0.0, t_end_for(stimuli), run);
  sim::SimSession::Scratch scratch;
  sim::RunGuard guard(sim::RunBudget{});
  auto build = [&](std::size_t begin, std::size_t end,
                   const std::vector<std::size_t>& cut) {
    sim::SimSession::BlockLocks locks(cut);
    sim::SimSession session(*circuit, begin, end, 0.0, run.traces, scratch,
                            guard, locks);
  };
  EXPECT_NO_THROW(build(m, n, {0, m, n}));
  // The empty range at a cut's last bound: no block starts there.
  EXPECT_THROW(build(n, n, {0, n}), AssertionError);
  // Two blocks, and part of one.
  EXPECT_THROW(build(0, n, {0, m, n}), AssertionError);
  EXPECT_THROW(build(0, m / 2, {0, m, n}), AssertionError);
  // A cut of fewer than two bounds has no block.
  const std::vector<std::size_t> no_bounds;
  const std::vector<std::size_t> one_bound{0};
  EXPECT_THROW(sim::SimSession::BlockLocks locks(no_bounds), AssertionError);
  EXPECT_THROW(sim::SimSession::BlockLocks locks(one_bound), AssertionError);
}

TEST(SimSession, AdvancePastThePulledHorizonThrows) {
  // Transitions enter a session only through pull(): an advance past the
  // highest pull would pass over every input transition in between.
  const auto circuit = build_c432();
  const auto stimuli = stimuli_for(circuit->n_inputs());
  const double t_end = t_end_for(stimuli);
  const double h = t_end / 4;
  const std::size_t n = circuit->n_gates();
  sim::Circuit::SimResult run;
  circuit->prepare_run(stimuli, 0.0, t_end, run);
  sim::SimSession::Scratch scratch;
  sim::RunGuard guard(sim::RunBudget{});
  const std::vector<std::size_t> cut{0, n};
  sim::SimSession::BlockLocks locks(cut);
  sim::SimSession session(*circuit, 0, n, 0.0, run.traces, scratch, guard,
                          locks);
  EXPECT_THROW(session.advance(h), AssertionError);
  session.pull(h);
  EXPECT_THROW(session.advance(2 * h), AssertionError);
  // Up to the pulled horizon, in any steps, every input transition is
  // processed.
  session.advance(h / 2);
  session.advance(h);
  ASSERT_EQ(session.status(), sim::RunStatus::kOk);
  long up_to_h = 0;
  for (std::size_t i = 0; i < circuit->n_inputs(); ++i) {
    for (const double t :
         run.traces[static_cast<std::size_t>(circuit->input_net(i))]
             .transitions()) {
      up_to_h += t <= h ? 1 : 0;
    }
  }
  EXPECT_GT(up_to_h, 0);
  EXPECT_EQ(session.n_stimulus_events(), up_to_h);
  EXPECT_EQ(session.n_pulled(), 0);
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
  auto run = [&](std::size_t end,
                 const std::vector<waveform::DigitalTrace>& inputs,
                 sim::SimSession::Scratch& scratch) {
    sim::Circuit::SimResult result;
    circuit->prepare_run(inputs, 0.0, t_end, result);
    sim::RunGuard guard(sim::RunBudget{});
    const std::vector<std::size_t> cut{0, end};
    sim::SimSession::BlockLocks locks(cut);
    sim::SimSession session(*circuit, 0, end, 0.0, result.traces, scratch,
                            guard, locks);
    session.pull(t_end);
    session.advance(t_end);
    session.add_to(result);
    return result;
  };
  sim::SimSession::Scratch shared;
  const struct {
    std::size_t end;
    const std::vector<waveform::DigitalTrace>* inputs;
  } order[] = {{n / 2, &stimuli}, {n, &other_stimuli}, {n / 2, &stimuli}};
  for (const auto& step : order) {
    sim::SimSession::Scratch own;
    const auto reused = run(step.end, *step.inputs, shared);
    const auto fresh = run(step.end, *step.inputs, own);
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
