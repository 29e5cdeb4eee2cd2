// Cross-mode bit-identity over every channel kind: one circuit and one
// stimulus set must give identical traces under monolithic simulate, one
// session over every gate, split SimSession ranges pulling from shared
// traces, ShardedCircuit at several shard, thread and window
// configurations, and BatchRunner's captured run. The
// inputs cover the three channel kinds the circuit stores by value (hybrid
// MIS gates, inertial SIS gates, RC wires) and boxed channels (a pure-delay
// SIS channel and Exp/SumExp SIS gate models behind the MIS interface), and
// exact time ties: constant SIS delays summed along reconvergent paths make
// distinct events land on the same double, which every mode must order the
// same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist_gen.hpp"
#include "core/gate_mode_tables.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/gate_models.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/inertial.hpp"
#include "sim/pure_delay.hpp"
#include "sim/run_guard.hpp"
#include "sim/sharded_circuit.hpp"
#include "sim/sim_session.hpp"
#include "sim/wire_channel.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"
#include "wire/wire_tables.hpp"

namespace charlie::sim {
namespace {

using Factory = std::function<std::unique_ptr<Circuit>()>;

// A hand-wired circuit whose fanout cones mix every channel kind. One stage
// reads the previous stage's outputs, so a cut anywhere crosses kinds.
std::unique_ptr<Circuit> mixed_circuit() {
  static const auto nor2 =
      core::GateModeTables::make(core::GateParams::nor2_reference());
  static const auto nor3 =
      core::GateModeTables::make(core::GateParams::nor3_reference());
  static const auto nand3 =
      core::GateModeTables::make(core::GateParams::nand3_reference());
  static const auto wire =
      wire::WireModeTables::make(wire::WireParams::reference());
  const SisGateDelays delays{30e-12, 25e-12};
  constexpr auto kNor = core::GateTopology::kNorLike;
  constexpr auto kNand = core::GateTopology::kNandLike;

  auto c = std::make_unique<Circuit>();
  std::vector<Circuit::NetId> in;
  for (int i = 0; i < 6; ++i) {
    in.push_back(c->add_input("in" + std::to_string(i)));
  }
  // Each stage reads fresh primary inputs next to the previous stage's
  // XOR and NAND3 outputs, which keeps every gate of every stage switching.
  Circuit::NetId prev_xor = in[5];
  Circuit::NetId prev_nand = in[4];
  for (int stage = 0; stage < 6; ++stage) {
    const std::string s = std::to_string(stage);
    auto p = [&](int k) {
      return in[static_cast<std::size_t>((stage + k) % 6)];
    };
    const auto g1 = c->add_mis_gate(GateKind::kNor2, "nor2_" + s,
                                    {p(0), prev_xor},
                                    std::make_unique<HybridGateChannel>(nor2));
    const auto g2 = c->add_mis_gate(GateKind::kNand2, "exp_" + s,
                                    {p(1), prev_nand},
                                    make_exp_gate(kNand, 2, delays, 15e-12));
    const auto g3 = c->add_gate(GateKind::kInv, "inv_" + s, {g1},
                                std::make_unique<InertialChannel>(12e-12,
                                                                  10e-12));
    const auto g4 = c->add_gate(GateKind::kBuf, "wire_" + s, {g2},
                                std::make_unique<WireChannel>(wire));
    const auto g5 = c->add_mis_gate(GateKind::kNor3, "nor3_" + s,
                                    {g1, p(2), p(3)},
                                    std::make_unique<HybridGateChannel>(nor3));
    const auto g6 = c->add_gate(GateKind::kInv, "pure_" + s, {g5},
                                std::make_unique<PureDelayChannel>(8e-12));
    const auto g7 = c->add_mis_gate(GateKind::kNor2, "sumexp_" + s,
                                    {g5, p(4)},
                                    make_sumexp_gate(kNor, 2, delays, 15e-12));
    const auto g8 = c->add_gate(GateKind::kXor2, "xor_" + s, {g7, g4},
                                std::make_unique<InertialChannel>(20e-12,
                                                                  18e-12));
    const auto g9 = c->add_mis_gate(
        GateKind::kNand3, "nand3_" + s, {g6, g3, g4},
        std::make_unique<HybridGateChannel>(nand3));
    prev_xor = g8;
    prev_nand = g9;
  }
  return c;
}

// Two identical inertial paths from input `a` reconverge on an XOR2: `x`
// through one buffer, `y` through two, and the XOR adds one more delay. So
// whenever `x` switches, the XOR schedules its output on exactly the double
// at which `y` switches. Gates: bx (0), by1 (1), by2 (2), xor (3); with one
// gate per shard, every cut separates the drivers from the reader.
constexpr double kTieDelay = 10e-12;

std::unique_ptr<Circuit> tie_circuit() {
  auto c = std::make_unique<Circuit>();
  const auto a = c->add_input("a");
  auto buf = [&](const char* name, Circuit::NetId in) {
    return c->add_gate(
        GateKind::kBuf, name, {in},
        std::make_unique<InertialChannel>(kTieDelay, kTieDelay));
  };
  const auto x = buf("x", a);
  const auto y1 = buf("y1", a);
  const auto y = buf("y", y1);
  c->add_gate(GateKind::kXor2, "z", {x, y},
              std::make_unique<InertialChannel>(kTieDelay, kTieDelay));
  return c;
}

Factory generated_factory(std::uint64_t seed, std::size_t n_gates = 2000) {
  static const auto library =
      std::make_shared<const cell::CellLibrary>(cell::CellLibrary::reference());
  cell::NetlistGenConfig config;
  config.n_gates = n_gates;
  config.wire_fraction = 0.05;
  config.seed = seed;
  auto desc = std::make_shared<const cell::NetlistDesc>(
      cell::generate_netlist(config));
  const auto builder = std::make_shared<const CircuitBuilder>(library);
  return [desc, builder] { return builder->build(*desc); };
}

std::vector<std::string> net_names(const Circuit& c) {
  std::vector<std::string> names;
  for (std::size_t n = 0; n < c.n_nets(); ++n) {
    names.push_back(c.net_name(static_cast<Circuit::NetId>(n)));
  }
  return names;
}

void expect_same(const waveform::DigitalTrace& expected,
                 const waveform::DigitalTrace& actual,
                 const std::string& label) {
  EXPECT_EQ(expected.initial_value(), actual.initial_value()) << label;
  EXPECT_EQ(expected.transitions(), actual.transitions()) << label;
}

// One session over every gate of a fresh circuit: every net and n_events
// must match `mono`.
void expect_one_session_matches(
    const Factory& factory, const std::vector<waveform::DigitalTrace>& stimuli,
    double t_end, const Circuit::SimResult& mono, const std::string& label) {
  const auto circuit = factory();
  Circuit::SimResult whole;
  circuit->prepare_run(stimuli, 0.0, t_end, whole);
  SimSession::Scratch scratch;
  RunGuard guard(RunBudget{});
  SimSession session(*circuit, 0, circuit->n_gates(), 0.0, whole.traces,
                     scratch, guard);
  session.advance(t_end);
  session.add_to(whole);
  ASSERT_TRUE(whole.ok()) << label;
  EXPECT_EQ(whole.n_events, mono.n_events) << label;
  for (std::size_t n = 0; n < whole.traces.size(); ++n) {
    expect_same(mono.traces[n], whole.traces[n],
                label + " one session net " +
                    circuit->net_name(static_cast<Circuit::NetId>(n)));
  }
}

// Splits the circuit into three ranges of one run, each pulling its
// upstream transitions from the run's shared traces before each of five
// windows; every net and n_events must match `mono`.
void expect_split_sessions_match(
    const Factory& factory, const std::vector<waveform::DigitalTrace>& stimuli,
    double t_end, const Circuit::SimResult& mono, const std::string& label) {
  auto circuit = factory();
  const std::size_t n = circuit->n_gates();
  const std::vector<std::size_t> cut{0, n / 3, 2 * n / 3, n};
  // The sessions share the run's traces, as the sharded runner's do:
  // upstream nets hold their settled values when the sessions are built.
  Circuit::SimResult run;
  circuit->prepare_run(stimuli, 0.0, t_end, run);
  RunGuard guard(RunBudget{});
  SimSession::BlockLocks locks(cut);
  std::vector<SimSession::Scratch> scratch(cut.size() - 1);
  std::vector<std::unique_ptr<SimSession>> sessions;
  for (std::size_t s = 0; s + 1 < cut.size(); ++s) {
    sessions.push_back(std::make_unique<SimSession>(
        *circuit, cut[s], cut[s + 1], 0.0, run.traces, scratch[s], guard,
        &locks));
  }
  const int n_windows = 5;
  for (int w = 1; w <= n_windows; ++w) {
    const double horizon =
        w == n_windows ? t_end : t_end * static_cast<double>(w) / n_windows;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      sessions[s]->pull(horizon);
      sessions[s]->advance(horizon);
      ASSERT_EQ(sessions[s]->status(), RunStatus::kOk) << label;
    }
  }
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    for (std::size_t g = cut[s]; g < cut[s + 1]; ++g) {
      const Circuit::NetId net = circuit->gate_output(g);
      expect_same(mono.trace(net), sessions[s]->trace(net),
                  label + " split net " + circuit->net_name(net));
    }
    sessions[s]->add_to(run);
  }
  EXPECT_EQ(run.n_events, mono.n_events) << label;
}

// ShardedCircuit at each K in `shard_counts`, on 1 and 4 threads, in one
// window and in windows of t_end / 3; every net and n_events must match
// `mono`.
void expect_sharded_matches(const Factory& factory,
                            const std::vector<waveform::DigitalTrace>& stimuli,
                            double t_end, const Circuit::SimResult& mono,
                            const std::vector<std::size_t>& shard_counts,
                            const std::string& label) {
  const std::vector<std::string> names = net_names(*factory());
  for (const std::size_t k : shard_counts) {
    ShardedCircuit sharded(factory(), k);
    for (const std::size_t threads : {1u, 4u}) {
      for (const double window : {0.0, t_end / 3.0}) {
        ShardedSimConfig config;
        config.n_threads = threads;
        config.window = window;
        const auto result = sharded.simulate(stimuli, 0.0, t_end, config);
        const std::string where = label + " sharded K=" + std::to_string(k) +
                                  " threads=" + std::to_string(threads) +
                                  " window=" + std::to_string(window);
        ASSERT_TRUE(result.ok()) << where;
        EXPECT_EQ(result.n_events, mono.n_events) << where;
        for (std::size_t n = 0; n < names.size(); ++n) {
          expect_same(mono.traces[n], result.trace(names[n]),
                      where + " net " + names[n]);
        }
      }
    }
  }
}

// Runs one input through every mode against its monolithic result. The
// stimuli are BatchRunner's captured run, so the batch leg compares the
// nets it captured and the other modes replay the same inputs.
void check_every_mode(const Factory& factory, std::size_t n_transitions,
                      const std::string& label,
                      const std::vector<std::string>& active = {}) {
  const auto probe = factory();
  std::vector<std::string> observed;
  for (std::size_t g = 0; g < probe->n_gates(); ++g) {
    observed.push_back(probe->net_name(probe->gate_output(g)));
  }

  // --- batch: run 1 of 3, captured --------------------------------------
  BatchConfig batch;
  batch.trace.mu = 150e-12;
  batch.trace.sigma = 60e-12;
  batch.trace.n_transitions = n_transitions;
  batch.n_runs = 3;
  batch.base_seed = 11;
  batch.n_threads = 2;
  batch.capture_run = 1;
  BatchRunner runner(factory, observed, batch);
  const BatchResult batched = runner.run();
  ASSERT_TRUE(batched.all_ok()) << label;
  ASSERT_EQ(batched.captured.size(), probe->n_inputs() + observed.size())
      << label;
  std::vector<waveform::DigitalTrace> stimuli;
  for (std::size_t i = 0; i < probe->n_inputs(); ++i) {
    stimuli.push_back(batched.captured[i].trace);
  }
  const double t_end =
      waveform::end_time(stimuli, batch.trace.t_start, batch.t_settle);

  // --- monolithic reference ---------------------------------------------
  auto mono_circuit = factory();
  const Circuit::SimResult mono = mono_circuit->simulate(stimuli, 0.0, t_end);
  ASSERT_TRUE(mono.ok()) << label << ": " << mono.diagnostics.summary();
  ASSERT_GT(mono.n_events, 0) << label;
  for (const std::string& net : active) {
    EXPECT_GT(mono.trace(mono_circuit->find_net(net)).n_transitions(), 0u)
        << label << " net " << net << " never switches";
  }
  for (std::size_t i = probe->n_inputs(); i < batched.captured.size(); ++i) {
    const auto& captured = batched.captured[i];
    expect_same(mono.trace(mono_circuit->find_net(captured.net)),
                captured.trace, label + " batch net " + captured.net);
  }

  // --- split SimSession ranges, pulling from shared traces --------------
  expect_split_sessions_match(factory, stimuli, t_end, mono, label);

  // --- sharded: K in {1, 2, 4}, 1 and 4 threads, two window quanta -------
  expect_sharded_matches(factory, stimuli, t_end, mono, {1, 2, 4}, label);
}

TEST(CrossMode, GeneratedNetlistsWithWiresAgreeInEveryMode) {
  for (const std::uint64_t seed : {1u, 2u}) {
    check_every_mode(generated_factory(seed), 24,
                     "gen2k seed " + std::to_string(seed));
  }
}

TEST(CrossMode, ExactTiesAcrossACutAgreeInEveryMode) {
  check_every_mode(tie_circuit, 40, "tie");

  // The canonical order fires the upstream driver of `y` before the XOR at
  // every tie, so the XOR's pending pulse is swallowed and `z` never
  // switches. Schedule order would fire the XOR first (it was scheduled
  // first) and let a pulse through.
  auto c = tie_circuit();
  std::vector<double> edges;
  for (int i = 1; i <= 8; ++i) edges.push_back(i * 100e-12);
  const std::vector<waveform::DigitalTrace> stimuli{
      waveform::DigitalTrace(false, edges)};
  const Circuit::SimResult mono = c->simulate(stimuli, 0.0, 1e-9);
  ASSERT_TRUE(mono.ok());
  EXPECT_EQ(mono.trace(c->find_net("y")).n_transitions(), edges.size());
  EXPECT_TRUE(mono.trace(c->find_net("z")).empty());
  // Per edge, bx and by1 fire together; the XOR's tied event is cancelled
  // before it can fire.
  EXPECT_EQ(mono.equal_time_ties, static_cast<long>(edges.size()));
}

TEST(CrossMode, GeneratedTiesAgreeAtHighShardCounts) {
  // gen_netlist --gates 20000 --seed 1 on the reference library, stimulus
  // seed 1, 64 transitions per input: SIS delays collide exactly on this
  // design, and cuts at 64 and 256 shards separate such ties from their
  // readers. The design is also larger than 2 * kGatesPerBlock, so
  // Circuit::simulate and one requested shard already run several blocks.
  static const auto library =
      std::make_shared<const cell::CellLibrary>(cell::CellLibrary::reference());
  cell::NetlistGenConfig gen;
  gen.n_gates = 20000;
  gen.seed = 1;
  const cell::NetlistDesc desc = cell::generate_netlist(gen);
  const CircuitBuilder builder(library);
  const auto mono_circuit = builder.build(desc);
  ASSERT_GT(mono_circuit->n_gates(), 2 * Circuit::kGatesPerBlock);
  waveform::TraceConfig trace;
  trace.mu = 150e-12;
  trace.sigma = 60e-12;
  trace.n_transitions = 64;
  util::Rng rng(1);
  const auto stimuli =
      waveform::generate_traces(trace, mono_circuit->n_inputs(), rng);
  const double t_end = waveform::end_time(stimuli, trace.t_start, 1e-9);
  const Circuit::SimResult mono = mono_circuit->simulate(stimuli, 0.0, t_end);
  ASSERT_TRUE(mono.ok());
  EXPECT_GT(mono.equal_time_ties, 0);

  // One session over every gate: the blocked Circuit::simulate above must
  // match it on every net and in n_events.
  expect_one_session_matches([&] { return builder.build(desc); }, stimuli,
                             t_end, mono, "gen20k");
  const std::vector<std::string> names = net_names(*mono_circuit);
  for (const auto& [k, threads] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 2}, {64, 1}, {64, 4}, {256, 4}}) {
    const auto sharded = builder.build_sharded(desc, k);
    EXPECT_GE(sharded->n_shards(), k);
    if (k == 1) {
      EXPECT_GT(sharded->n_shards(), 2u);
    }
    ShardedSimConfig config;
    config.n_threads = threads;
    const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
    const std::string where =
        "gen20k K=" + std::to_string(k) + " threads=" + std::to_string(threads);
    ASSERT_TRUE(result.ok()) << where;
    EXPECT_EQ(result.n_events, mono.n_events) << where;
    for (std::size_t n = 0; n < names.size(); ++n) {
      expect_same(mono.traces[n], result.trace(names[n]),
                  where + " net " + names[n]);
    }
  }
}

TEST(CrossMode, SimultaneousInputEdgesAgreeInEveryMode) {
  // Every primary input switches at the same instants, so each instant is
  // an exact tie across all of them, which every stimulus stream must
  // break by input order whatever the range, cut, window or thread. Odd
  // inputs start high, so gates still see differing inputs. The design is
  // larger than one block, so Circuit::simulate runs two.
  const Factory factory =
      generated_factory(3, Circuit::kGatesPerBlock + 1000);
  const auto mono_circuit = factory();
  ASSERT_GT(mono_circuit->n_gates(), Circuit::kGatesPerBlock);
  std::vector<double> edges;
  for (int k = 1; k <= 24; ++k) edges.push_back(k * 137e-12);
  std::vector<waveform::DigitalTrace> stimuli;
  for (std::size_t i = 0; i < mono_circuit->n_inputs(); ++i) {
    stimuli.emplace_back(i % 2 == 1, edges);
  }
  const double t_end = edges.back() + 1e-9;
  const Circuit::SimResult mono = mono_circuit->simulate(stimuli, 0.0, t_end);
  ASSERT_TRUE(mono.ok()) << mono.diagnostics.summary();
  EXPECT_GE(mono.equal_time_ties,
            static_cast<long>(edges.size() * (mono_circuit->n_inputs() - 1)));

  const std::string label = "simultaneous edges";
  expect_one_session_matches(factory, stimuli, t_end, mono, label);
  expect_split_sessions_match(factory, stimuli, t_end, mono, label);
  expect_sharded_matches(factory, stimuli, t_end, mono, {2, 4, 16}, label);
}

TEST(CrossMode, MixedBuiltInAndBoxedChannelsAgreeInEveryMode) {
  // Hybrid, inertial and wire channels are stored by value; the pure-delay,
  // Exp and SumExp channels stay boxed.
  // Every kind switches in the last stage, deepest in the cones.
  std::vector<std::string> active;
  for (const char* kind : {"nor2_", "exp_", "inv_", "wire_", "nor3_", "pure_",
                           "sumexp_", "xor_", "nand3_"}) {
    active.push_back(std::string(kind) + "5");
  }
  check_every_mode(mixed_circuit, 120, "mixed", active);
}

}  // namespace
}  // namespace charlie::sim
