// ShardedCircuit regression lock: partitioning a real netlist across
// shards and simulating with the conservative windowed wavefront must be
// bit-identical to the monolithic single-threaded engine -- for every
// shard count, thread count, and window quantum. Runs on the repo's
// c432-class netlist (examples/netlists/c432.net, ~150 gates, all nine
// cells) so the lock covers SIS, hybrid MIS, and mixed fanout structure.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "cell/netlist_gen.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/sharded_circuit.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace charlie {
namespace {

const cell::NetlistDesc& c432() {
  static const cell::NetlistDesc desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  return desc;
}

sim::CircuitBuilder builder() {
  static const auto library =
      std::make_shared<const cell::CellLibrary>(cell::CellLibrary::reference());
  return sim::CircuitBuilder(library);
}

std::vector<waveform::DigitalTrace> stimuli_for(
    std::size_t n_inputs, std::uint64_t seed,
    std::size_t n_transitions = 40) {
  waveform::TraceConfig config;
  config.mu = 150e-12;
  config.sigma = 60e-12;
  config.n_transitions = n_transitions;
  util::Rng rng(seed);
  return waveform::generate_traces(config, n_inputs, rng);
}

double t_end_for(const std::vector<waveform::DigitalTrace>& stimuli) {
  return waveform::end_time(stimuli, 0.0, 2e-9);  // settle tail
}

// Every net the monolithic circuit knows, by name (inputs included).
std::vector<std::string> all_nets(const cell::NetlistDesc& desc) {
  std::vector<std::string> nets(desc.inputs.begin(), desc.inputs.end());
  for (const auto& inst : desc.instances) nets.push_back(inst.output);
  for (const auto& wire : desc.wires) nets.push_back(wire.output);
  return nets;
}

void expect_bit_identical(const sim::Circuit::SimResult& mono,
                          sim::Circuit& mono_circuit,
                          const sim::ShardedCircuit::Result& sharded,
                          const cell::NetlistDesc& desc,
                          const std::string& label) {
  ASSERT_TRUE(mono.ok()) << label << ": " << mono.diagnostics.summary();
  ASSERT_TRUE(sharded.ok()) << label << ": " << sharded.diagnostics.summary();
  EXPECT_EQ(mono.n_events, sharded.n_events) << label;
  for (const std::string& net : all_nets(desc)) {
    const auto& expected = mono.trace(mono_circuit.find_net(net));
    const auto& actual = sharded.trace(net);
    ASSERT_EQ(expected.initial_value(), actual.initial_value())
        << label << " net " << net;
    ASSERT_EQ(expected.transitions(), actual.transitions())
        << label << " net " << net;
  }
}

TEST(ShardedCircuit, PartitionCoversEveryGateAcyclically) {
  const auto b = builder();
  const auto mono = b.build(c432());
  for (const std::size_t n_shards : {1u, 2u, 4u, 7u}) {
    const auto sharded = b.build_sharded(c432(), n_shards);
    EXPECT_EQ(sharded->n_shards(), n_shards);
    EXPECT_EQ(sharded->n_gates(), mono->n_gates());
    EXPECT_EQ(sharded->n_inputs(), c432().inputs.size());
  }
}

TEST(ShardedCircuit, ShardCountIsClampedToElementCount) {
  const auto sharded = builder().build_sharded(c432(), 100000);
  EXPECT_LE(sharded->n_shards(),
            c432().instances.size() + c432().wires.size());
  EXPECT_GE(sharded->n_shards(), 2u);
}

TEST(ShardedCircuit, BitIdenticalToMonolithicAcrossShardAndThreadCounts) {
  const auto b = builder();
  const auto mono_circuit = b.build(c432());
  const auto stimuli = stimuli_for(mono_circuit->n_inputs(), 7);
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);

  for (const std::size_t n_shards : {1u, 2u, 4u}) {
    auto sharded = b.build_sharded(c432(), n_shards);
    for (const std::size_t n_threads : {1u, 2u, 4u}) {
      sim::ShardedSimConfig config;
      config.n_threads = n_threads;
      const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
      expect_bit_identical(mono, *mono_circuit, result, c432(),
                           "shards=" + std::to_string(n_shards) +
                               " threads=" + std::to_string(n_threads));
    }
  }
}

TEST(ShardedCircuit, BitIdenticalForAnyWindowQuantum) {
  const auto b = builder();
  const auto mono_circuit = b.build(c432());
  const auto stimuli = stimuli_for(mono_circuit->n_inputs(), 11);
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);

  auto sharded = b.build_sharded(c432(), 4);
  // From one giant window (pure sequential shard sweep) down to quanta far
  // below the gate delays (every boundary event crosses windows), on one
  // thread (tasks in wavefront order) and on one per block.
  for (const double window : {t_end * 2.0, t_end / 3.0, 1e-10, 7e-12}) {
    for (const std::size_t n_threads : {1u, 4u}) {
      sim::ShardedSimConfig config;
      config.window = window;
      config.n_threads = n_threads;
      const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
      EXPECT_GE(result.n_windows, 1u);
      expect_bit_identical(mono, *mono_circuit, result, c432(),
                           "window=" + std::to_string(window) + " threads=" +
                               std::to_string(n_threads));
    }
  }
}

TEST(ShardedCircuit, ThreadCountIsClampedToTheBlockCount) {
  // No more than one task per block is ever ready, so a run starts at most
  // one worker per block, whatever it asks for.
  const auto b = builder();
  const auto mono_circuit = b.build(c432());
  const auto stimuli = stimuli_for(mono_circuit->n_inputs(), 7);
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);
  auto sharded = b.build_sharded(c432(), 2);
  ASSERT_EQ(sharded->n_shards(), 2u);
  sim::ShardedSimConfig config;
  config.n_threads = sharded->n_shards() + 2;
  const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
  EXPECT_EQ(result.n_threads, sharded->n_shards());
  expect_bit_identical(mono, *mono_circuit, result, c432(), "clamped");
  config.n_threads = 1;
  EXPECT_EQ(sharded->simulate(stimuli, 0.0, t_end, config).n_threads, 1u);
}

TEST(ShardedCircuit, RepeatedSimulationsOnOneInstanceAgree) {
  // The pool and shard circuits persist across simulate() calls; a second
  // call must not see stale channel or exchange state.
  const auto b = builder();
  auto sharded = b.build_sharded(c432(), 3);
  const auto stimuli = stimuli_for(sharded->n_inputs(), 21);
  const double t_end = t_end_for(stimuli);
  const auto first = sharded->simulate(stimuli, 0.0, t_end);
  const auto second = sharded->simulate(stimuli, 0.0, t_end);
  EXPECT_EQ(first.n_events, second.n_events);
  for (const std::string& net : all_nets(c432())) {
    EXPECT_EQ(first.trace(net).transitions(), second.trace(net).transitions())
        << net;
  }
}

TEST(ShardedCircuit, SecondRunBalancesMeasuredEvents) {
  // Activity thins with logic depth, so the structural (equal-count) first
  // cut overloads the shallow shard. A completed run re-cuts on its own
  // per-net transition counts; for the same stimuli the second run's
  // session events then split evenly, and the cut has converged: runs 2
  // and 3 report identical metrics. Every run stays bit-identical to the
  // monolithic engine.
  cell::NetlistGenConfig gen;
  gen.n_gates = 5000;
  const cell::NetlistDesc desc = cell::generate_netlist(gen);
  const auto b = builder();
  const auto mono_circuit = b.build(desc);
  const auto stimuli = stimuli_for(mono_circuit->n_inputs(), 1, 64);
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);

  auto sharded = b.build_sharded(desc, 4);
  const std::vector<std::size_t> first_cut = sharded->cut();
  sim::ShardedSimConfig config;
  config.n_threads = 4;
  std::vector<sim::ShardedCircuit::Result> runs;
  for (int run = 1; run <= 3; ++run) {
    runs.push_back(sharded->simulate(stimuli, 0.0, t_end, config));
    ASSERT_TRUE(runs.back().ok()) << "run " << run;
    expect_bit_identical(mono, *mono_circuit, runs.back(), desc,
                         "run " + std::to_string(run));
  }
  EXPECT_EQ(runs[0].cut, first_cut);
  EXPECT_NE(runs[1].cut, first_cut);
  EXPECT_EQ(runs[2].cut, runs[1].cut);
  EXPECT_GT(runs[0].load_imbalance(), 1.3);
  EXPECT_LE(runs[1].load_imbalance(), 1.05);
  EXPECT_EQ(runs[2].metrics.to_json(), runs[1].metrics.to_json());
}

TEST(ShardedCircuit, FailedRunKeepsTheCut) {
  // Only a completed run re-cuts: a tripped run's counts are partial.
  const auto b = builder();
  auto sharded = b.build_sharded(c432(), 4);
  const auto stimuli = stimuli_for(sharded->n_inputs(), 7);
  const double t_end = t_end_for(stimuli);
  const std::vector<std::size_t> first_cut = sharded->cut();
  sim::ShardedSimConfig config;
  config.budget.max_events = 50;
  const auto tripped = sharded->simulate(stimuli, 0.0, t_end, config);
  EXPECT_EQ(tripped.status, sim::RunStatus::kBudgetExhausted);
  EXPECT_EQ(sharded->cut(), first_cut);
  const auto full = sharded->simulate(stimuli, 0.0, t_end);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.cut, first_cut);
  EXPECT_NE(sharded->cut(), first_cut);
}

TEST(ShardedCircuit, UnknownNetThrows) {
  const auto b = builder();
  auto sharded = b.build_sharded(c432(), 2);
  const auto stimuli = stimuli_for(sharded->n_inputs(), 3);
  const auto result = sharded->simulate(stimuli, 0.0, t_end_for(stimuli));
  EXPECT_THROW(result.trace("no_such_net"), ConfigError);
}

TEST(ShardedCircuit, UnbudgetedRunReportsOkDiagnostics) {
  const auto b = builder();
  auto sharded = b.build_sharded(c432(), 3);
  const auto stimuli = stimuli_for(sharded->n_inputs(), 13);
  const auto result = sharded->simulate(stimuli, 0.0, t_end_for(stimuli));
  EXPECT_EQ(result.status, sim::RunStatus::kOk);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.diagnostics.status, sim::RunStatus::kOk);
  EXPECT_EQ(result.diagnostics.n_events, result.n_events);
  EXPECT_TRUE(result.diagnostics.error.empty());
}

TEST(ShardedCircuit, EventBudgetTripIsThreadCountInvariant) {
  // The event ceiling is enforced on the coordinating thread at wavefront
  // step granularity, so the trip point (and the partial event count) is a
  // function of the shard/window schedule only, never of thread timing.
  const auto b = builder();
  const auto stimuli = stimuli_for(c432().inputs.size(), 7);
  const double t_end = t_end_for(stimuli);
  auto sharded = b.build_sharded(c432(), 4);
  const long full_events =
      sharded->simulate(stimuli, 0.0, t_end).n_events;
  ASSERT_GT(full_events, 100);

  sim::ShardedSimConfig config;
  config.budget.max_events = full_events / 2;
  long first_partial = -1;
  std::string first_metrics;
  for (const std::size_t n_threads : {1u, 2u, 4u}) {
    config.n_threads = n_threads;
    const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
    EXPECT_EQ(result.status, sim::RunStatus::kBudgetExhausted);
    EXPECT_FALSE(result.ok());
    EXPECT_GT(result.n_events, 0);
    EXPECT_LT(result.n_events, full_events);
    EXPECT_LT(result.diagnostics.t_horizon, t_end);
    // The tripped run's per-task events and pulled transitions too: each
    // task pulls only up to its own window's end.
    if (first_partial < 0) {
      first_partial = result.n_events;
      first_metrics = result.metrics.to_json();
    } else {
      EXPECT_EQ(result.n_events, first_partial) << n_threads << " threads";
      EXPECT_EQ(result.metrics.to_json(), first_metrics)
          << n_threads << " threads";
    }
  }

  // A ceiling inside the last step: with one window, the last step is the
  // last block's whole run. Every task runs, and the run trips once it is
  // over, as Circuit::simulate's does.
  config.window = t_end;
  config.budget.max_events = full_events - 1;
  for (const std::size_t n_threads : {1u, 2u, 4u}) {
    config.n_threads = n_threads;
    const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
    ASSERT_EQ(result.n_windows, 1u);
    EXPECT_GT(result.shard_window_events.back().front(), 1);
    EXPECT_EQ(result.status, sim::RunStatus::kBudgetExhausted)
        << n_threads << " threads";
    EXPECT_EQ(result.diagnostics.status, sim::RunStatus::kBudgetExhausted)
        << n_threads << " threads";
    EXPECT_EQ(result.n_events, full_events) << n_threads << " threads";
  }
}

TEST(ShardedCircuit, PresetCancellationStopsTheWavefront) {
  std::atomic<bool> cancel{true};
  const auto b = builder();
  auto sharded = b.build_sharded(c432(), 3);
  const auto stimuli = stimuli_for(sharded->n_inputs(), 7);
  sim::ShardedSimConfig config;
  config.budget.cancel = &cancel;
  config.budget.check_interval = 1;
  const auto result =
      sharded->simulate(stimuli, 0.0, t_end_for(stimuli), config);
  EXPECT_EQ(result.status, sim::RunStatus::kCancelled);
  EXPECT_FALSE(result.ok());
}

TEST(ShardedCircuit, GuardCountersMatchMonolithic) {
  // Guard sites count on the thread that runs them, and a shard's session
  // moves between pool workers from window to window. Each session adds up
  // the increments of its own calls, so the sharded run reports exactly
  // the monolithic run's Newton->Brent fallbacks at any thread count.
  util::FaultInjector::Scope scope;
  util::FaultInjector::reset_local_hits();
  util::FaultInjector::arm(
      "crossing.newton", {util::FaultInjector::Action::kForceBranch, 0, -1});

  const auto b = builder();
  const auto mono_circuit = b.build(c432());
  const auto stimuli = stimuli_for(mono_circuit->n_inputs(), 7);
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);
  const long fallbacks = mono.diagnostics.counters.newton_brent_fallbacks;
  ASSERT_GT(fallbacks, 0);

  auto sharded = b.build_sharded(c432(), 4);
  for (const std::size_t n_threads : {1u, 2u, 4u}) {
    sim::ShardedSimConfig config;
    config.n_threads = n_threads;
    const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
    const std::string label = "threads=" + std::to_string(n_threads);
    expect_bit_identical(mono, *mono_circuit, result, c432(), label);
    EXPECT_EQ(result.diagnostics.counters.newton_brent_fallbacks, fallbacks)
        << label;
    EXPECT_EQ(result.metrics.counter("run.newton_brent_fallbacks"), fallbacks)
        << label;
  }
}

TEST(ShardedCircuit, InjectedShardFaultYieldsStructuredFailure) {
  util::FaultInjector::Scope scope;
  util::FaultInjector::reset_local_hits();

  const auto b = builder();
  const auto mono_circuit = b.build(c432());
  const auto stimuli = stimuli_for(mono_circuit->n_inputs(), 7);
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);

  auto sharded = b.build_sharded(c432(), 4);
  sim::ShardedSimConfig config;
  config.n_threads = 2;

  // Poison the first hybrid mode switch: the failing shard's session
  // captures the failure and counts the guard trip, and the whole run
  // reports kFailed instead of throwing or hanging.
  util::FaultInjector::arm(
      "hybrid_channel.state", {util::FaultInjector::Action::kNanValue, 0, -1});
  const auto faulted = sharded->simulate(stimuli, 0.0, t_end, config);
  EXPECT_EQ(faulted.status, sim::RunStatus::kFailed);
  EXPECT_FALSE(faulted.ok());
  EXPECT_NE(faulted.diagnostics.error.find("non-finite"), std::string::npos)
      << faulted.diagnostics.error;
  EXPECT_LE(faulted.diagnostics.t_horizon, t_end);
  EXPECT_GE(faulted.diagnostics.counters.nonfinite_guard_trips, 1);

  // The instance (pool, shard circuits) survives the failure: a disarmed
  // re-simulation is bit-identical to the monolithic engine.
  util::FaultInjector::disarm("hybrid_channel.state");
  const auto clean = sharded->simulate(stimuli, 0.0, t_end, config);
  EXPECT_EQ(clean.status, sim::RunStatus::kOk);
  expect_bit_identical(mono, *mono_circuit, clean, c432(),
                       "recovery after injected shard fault");
}

TEST(ShardedCircuit, SessionFailingMidRunStopsTheWavefront) {
  // A block fails after its worker's first mode switches, in one of many
  // short windows on one worker per block: the schedule stops releasing
  // tasks, the other workers return instead of waiting for tasks that
  // never come, and the run reports the failure.
  util::FaultInjector::Scope scope;
  const auto b = builder();
  const auto stimuli = stimuli_for(c432().inputs.size(), 7);
  const double t_end = t_end_for(stimuli);
  auto sharded = b.build_sharded(c432(), 4);
  sim::ShardedSimConfig config;
  config.n_threads = 4;
  config.window = t_end / 64;
  util::FaultInjector::arm("hybrid_channel.state",
                           {util::FaultInjector::Action::kNanValue, 50, 1});
  const auto faulted = sharded->simulate(stimuli, 0.0, t_end, config);
  EXPECT_EQ(faulted.n_windows, 64u);
  EXPECT_EQ(faulted.status, sim::RunStatus::kFailed);
  EXPECT_NE(faulted.diagnostics.error.find("non-finite"), std::string::npos)
      << faulted.diagnostics.error;
  EXPECT_LT(faulted.diagnostics.t_horizon, t_end);
  EXPECT_GE(util::FaultInjector::fires("hybrid_channel.state"), 1);
}

TEST(ShardedCircuit, FailedStepRunsWholeAtAnyThreadCount) {
  // Two inverter chains: a short one from input a into the one hybrid
  // gate, and a long one from input c, which starts toggling first. Gates
  // are in topological order, so block 1 holds the hybrid gate and block 2
  // the deep end of c's chain. Every hybrid mode switch fails, so block 1
  // fails at a's first edge, while c's edges keep block 2 busy in the same
  // wavefront step. Under an event ceiling no task runs ahead of its step,
  // and a failure at step s still lets the rest of step s run, so how far
  // each block gets, and with it the whole partial result, does not depend
  // on the thread count.
  std::string text = "input(a, b, c)\n";
  auto chain = [&](const std::string& name, const std::string& from, int n) {
    std::string in = from;
    for (int i = 1; i <= n; ++i) {
      const std::string out = name + std::to_string(i);
      text += "INV(" + out + ", " + in + ")\n";
      in = out;
    }
  };
  chain("x", "a", 4);
  text += "NOR2(y, x4, b)\n";
  chain("z", "c", 30);
  const cell::NetlistDesc desc = cell::parse_netlist(text);
  auto sharded = builder().build_sharded(desc, 3);
  ASSERT_EQ(sharded->n_shards(), 3u);
  std::vector<double> c_edges;
  for (int i = 0; i < 40; ++i) c_edges.push_back((0.1 + 0.2 * i) * 1e-9);
  const std::vector<waveform::DigitalTrace> stimuli{
      {false, {4.0e-9, 4.6e-9}}, {false, {}}, {false, c_edges}};
  const double t_end = t_end_for(stimuli);

  util::FaultInjector::Scope scope;
  util::FaultInjector::arm(
      "hybrid_channel.state", {util::FaultInjector::Action::kNanValue, 0, -1});
  sim::ShardedSimConfig config;
  config.window = t_end / 256;
  config.budget.max_events = std::numeric_limits<long>::max();
  config.n_threads = 1;
  const auto first = sharded->simulate(stimuli, 0.0, t_end, config);
  EXPECT_EQ(first.status, sim::RunStatus::kFailed);
  EXPECT_NE(first.diagnostics.error.find("non-finite"), std::string::npos)
      << first.diagnostics.error;
  for (const std::size_t n_threads : {2u, 3u}) {
    const std::string label = "threads=" + std::to_string(n_threads);
    config.n_threads = n_threads;
    const auto faulted = sharded->simulate(stimuli, 0.0, t_end, config);
    EXPECT_EQ(faulted.status, sim::RunStatus::kFailed) << label;
    EXPECT_EQ(faulted.diagnostics.error, first.diagnostics.error) << label;
    EXPECT_EQ(faulted.n_events, first.n_events) << label;
    EXPECT_EQ(faulted.diagnostics.t_horizon, first.diagnostics.t_horizon)
        << label;
    EXPECT_EQ(faulted.shard_window_events, first.shard_window_events)
        << label;
    EXPECT_EQ(faulted.metrics.to_json(), first.metrics.to_json()) << label;
  }
}

TEST(ShardedCircuit, PoolFaultFailsTheRunWithoutHanging) {
  // The first work item each pool thread claims, a block session's
  // construction, throws: the schedule never starts, the run reports
  // kFailed with the pool's error and returns, and the instance stays
  // usable.
  util::FaultInjector::Scope scope;
  const auto b = builder();
  const auto mono_circuit = b.build(c432());
  const auto stimuli = stimuli_for(mono_circuit->n_inputs(), 7);
  const double t_end = t_end_for(stimuli);
  const auto mono = mono_circuit->simulate(stimuli, 0.0, t_end);
  auto sharded = b.build_sharded(c432(), 4);
  for (const std::size_t n_threads : {1u, 2u, 4u}) {
    const std::string label = "threads=" + std::to_string(n_threads);
    sim::ShardedSimConfig config;
    config.n_threads = n_threads;
    // A thread count the instance has not run yet: a new pool, whose
    // threads each fire once.
    util::FaultInjector::arm(
        "thread_pool.item",
        {util::FaultInjector::Action::kRuntimeError, 0, 1});
    const auto faulted = sharded->simulate(stimuli, 0.0, t_end, config);
    EXPECT_EQ(faulted.status, sim::RunStatus::kFailed) << label;
    EXPECT_EQ(faulted.diagnostics.status, sim::RunStatus::kFailed) << label;
    EXPECT_NE(faulted.diagnostics.error.find("thread_pool.item"),
              std::string::npos)
        << label << ": " << faulted.diagnostics.error;
    EXPECT_EQ(faulted.n_events, 0) << label;
    EXPECT_EQ(faulted.diagnostics.t_horizon, 0.0) << label;
    util::FaultInjector::disarm("thread_pool.item");
    const auto clean = sharded->simulate(stimuli, 0.0, t_end, config);
    expect_bit_identical(mono, *mono_circuit, clean, c432(),
                         "recovery after a pool fault, " + label);
  }
}

}  // namespace
}  // namespace charlie
