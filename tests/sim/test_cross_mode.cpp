// Cross-mode bit-identity over every channel kind: one circuit and one
// stimulus set must give identical traces under monolithic simulate, split
// SimSession ranges fed through inject, ShardedCircuit at several shard,
// thread and window configurations, and BatchRunner's captured run. The
// inputs cover the three channel kinds the circuit stores by value (hybrid
// MIS gates, inertial SIS gates, RC wires) and boxed channels (a pure-delay
// SIS channel and Exp/SumExp SIS gate models behind the MIS interface).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
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
#include "sim/sharded_circuit.hpp"
#include "sim/sim_session.hpp"
#include "sim/wire_channel.hpp"
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

Factory generated_factory(std::uint64_t seed) {
  static const auto library =
      std::make_shared<const cell::CellLibrary>(cell::CellLibrary::reference());
  cell::NetlistGenConfig config;
  config.n_gates = 2000;
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

// Runs one input through every mode against its monolithic result. The
// stimuli are BatchRunner's captured run, so the batch leg compares the
// nets it captured and the other modes replay the same inputs.
void check_every_mode(const Factory& factory, std::size_t n_transitions,
                      const std::string& label,
                      const std::vector<std::string>& active = {}) {
  const auto probe = factory();
  const std::vector<std::string> names = net_names(*probe);
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
  double t_last = batch.trace.t_start;
  for (std::size_t i = 0; i < probe->n_inputs(); ++i) {
    stimuli.push_back(batched.captured[i].trace);
    if (!stimuli.back().empty()) {
      t_last = std::max(t_last, stimuli.back().transitions().back());
    }
  }
  const double t_end = t_last + batch.t_settle;

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

  // --- split SimSession ranges, fed through inject -----------------------
  {
    auto circuit = factory();
    const std::size_t n = circuit->n_gates();
    const std::vector<std::size_t> cut{0, n / 3, 2 * n / 3, n};
    std::vector<std::unique_ptr<SimSession>> sessions;
    for (std::size_t s = 0; s + 1 < cut.size(); ++s) {
      sessions.push_back(std::make_unique<SimSession>(
          *circuit, cut[s], cut[s + 1], stimuli, 0.0));
    }
    // The range driving each net; -1 for primary inputs.
    std::vector<long> owner(circuit->n_nets(), -1);
    for (std::size_t s = 0; s + 1 < cut.size(); ++s) {
      for (std::size_t g = cut[s]; g < cut[s + 1]; ++g) {
        owner[static_cast<std::size_t>(circuit->gate_output(g))] =
            static_cast<long>(s);
      }
    }
    // For each range, the nets it reads from earlier ranges.
    struct Feed {
      Circuit::NetId net;
      std::size_t from;
      std::size_t to;
      std::size_t exported = 0;
    };
    std::vector<Feed> feeds;
    for (std::size_t s = 1; s + 1 < cut.size(); ++s) {
      std::vector<Circuit::NetId> seen;
      for (std::size_t g = cut[s]; g < cut[s + 1]; ++g) {
        for (const Circuit::NetId net : circuit->gate_inputs(g)) {
          const long from = owner[static_cast<std::size_t>(net)];
          if (from < 0 || static_cast<std::size_t>(from) >= s ||
              std::find(seen.begin(), seen.end(), net) != seen.end()) {
            continue;
          }
          seen.push_back(net);
          feeds.push_back({net, static_cast<std::size_t>(from), s});
        }
      }
    }
    const int n_windows = 5;
    for (int w = 1; w <= n_windows; ++w) {
      const double horizon =
          w == n_windows ? t_end : t_end * static_cast<double>(w) / n_windows;
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        for (Feed& feed : feeds) {
          if (feed.to != s) continue;
          const auto& produced = sessions[feed.from]->trace(feed.net);
          for (; feed.exported < produced.n_transitions(); ++feed.exported) {
            sessions[s]->inject(feed.net,
                                produced.transitions()[feed.exported],
                                produced.is_rising(feed.exported));
          }
        }
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
    }
  }

  // --- sharded: K in {1, 2, 4}, 1 and 4 threads, two window quanta -------
  for (const std::size_t k : {1u, 2u, 4u}) {
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

TEST(CrossMode, GeneratedNetlistsWithWiresAgreeInEveryMode) {
  for (const std::uint64_t seed : {1u, 2u}) {
    check_every_mode(generated_factory(seed), 24,
                     "gen2k seed " + std::to_string(seed));
  }
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
