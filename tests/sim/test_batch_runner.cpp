#include "sim/batch_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "core/gate_mode_tables.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/pure_delay.hpp"
#include "sim/run_guard.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace charlie::sim {
namespace {

BatchConfig small_config() {
  BatchConfig config;
  config.trace.mu = 150e-12;
  config.trace.sigma = 60e-12;
  config.trace.n_transitions = 60;
  config.n_runs = 8;
  config.base_seed = 42;
  config.histogram_bins = 16;
  return config;
}

CircuitFactory nor_factory() {
  const auto tables =
      core::GateModeTables::make(core::GateParams::nor2_reference());
  return [tables] {
    auto circuit = std::make_unique<Circuit>();
    const auto a = circuit->add_input("a");
    const auto b = circuit->add_input("b");
    circuit->add_mis_gate(GateKind::kNor2, "out", {a, b},
                          std::make_unique<HybridGateChannel>(tables));
    return circuit;
  };
}

TEST(Histogram, BinsAndMerge) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);  // underflow
  h.add(0.0);
  h.add(5.5);
  h.add(10.0);  // hi is exclusive -> overflow
  h.add(42.0);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bins()[0], 1u);
  EXPECT_EQ(h.bins()[5], 1u);
  Histogram other(0.0, 10.0, 10);
  other.add(5.1);
  h.merge(other);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bins()[5], 2u);
  EXPECT_DOUBLE_EQ(h.sum(), -1.0 + 0.0 + 5.5 + 10.0 + 42.0 + 5.1);
}

TEST(BatchRunner, ProducesActivity) {
  BatchRunner runner(nor_factory(), "out", small_config());
  const auto result = runner.run();
  EXPECT_EQ(result.n_runs, 8u);
  EXPECT_EQ(result.events_per_run.size(), 8u);
  EXPECT_GT(result.total_events, 0);
  EXPECT_GT(result.nets.front().transitions, 0);
  EXPECT_GT(result.nets.front().pulse_width.count(), 0u);
  EXPECT_GT(result.nets.front().response_delay.count(), 0u);
  // Every output transition trails some stimulus edge by at least the pure
  // delay and the histogram must see it.
  EXPECT_GT(result.nets.front().response_delay.mean(), 0.0);
}

TEST(BatchRunner, BitIdenticalAcrossThreadCounts) {
  auto run_with = [&](std::size_t n_threads) {
    BatchConfig config = small_config();
    config.n_threads = n_threads;
    BatchRunner runner(nor_factory(), "out", config);
    return runner.run();
  };
  const auto one = run_with(1);
  for (std::size_t n_threads : {2u, 5u}) {
    const auto many = run_with(n_threads);
    EXPECT_EQ(many.n_threads, n_threads);
    EXPECT_EQ(many.total_events, one.total_events);
    EXPECT_EQ(many.nets.front().transitions, one.nets.front().transitions);
    EXPECT_EQ(many.events_per_run, one.events_per_run);
    EXPECT_EQ(many.nets.front().pulse_width.bins(),
              one.nets.front().pulse_width.bins());
    EXPECT_EQ(many.nets.front().pulse_width.sum(),
              one.nets.front().pulse_width.sum());
    EXPECT_EQ(many.nets.front().response_delay.bins(),
              one.nets.front().response_delay.bins());
    EXPECT_EQ(many.nets.front().response_delay.sum(),
              one.nets.front().response_delay.sum());
  }
}

TEST(BatchRunner, SeedsChangeResults) {
  BatchConfig config = small_config();
  BatchRunner a(nor_factory(), "out", config);
  config.base_seed = 4242;
  BatchRunner b(nor_factory(), "out", config);
  EXPECT_NE(a.run().total_events, b.run().total_events);
}

TEST(BatchRunner, WorksWithSisChannels) {
  auto factory = [] {
    auto circuit = std::make_unique<Circuit>();
    const auto in = circuit->add_input("in");
    circuit->add_gate(GateKind::kInv, "out", {in},
                      std::make_unique<PureDelayChannel>(10e-12));
    return circuit;
  };
  BatchConfig config = small_config();
  config.n_threads = 2;
  // Keep every gap above the pure delay so no pulse can be swallowed.
  config.trace.min_width = 20e-12;
  BatchRunner runner(factory, "out", config);
  const auto result = runner.run();
  // A pure-delay inverter then reproduces every input transition.
  EXPECT_EQ(result.nets.front().transitions,
            static_cast<long long>(config.n_runs * 60));
}

CircuitFactory two_stage_factory() {
  const auto tables =
      core::GateModeTables::make(core::GateParams::nor2_reference());
  return [tables] {
    auto circuit = std::make_unique<Circuit>();
    const auto a = circuit->add_input("a");
    const auto b = circuit->add_input("b");
    const auto mid = circuit->add_mis_gate(
        GateKind::kNor2, "mid", {a, b},
        std::make_unique<HybridGateChannel>(tables));
    circuit->add_gate(GateKind::kInv, "out", {mid},
                      std::make_unique<PureDelayChannel>(5e-12));
    return circuit;
  };
}

TEST(BatchRunner, ObservesMultipleNamedNets) {
  const auto config = small_config();
  BatchRunner runner(two_stage_factory(),
                     std::vector<std::string>{"mid", "out"}, config);
  const auto result = runner.run();

  ASSERT_EQ(result.nets.size(), 2u);
  EXPECT_EQ(result.nets[0].net, "mid");
  EXPECT_EQ(result.nets[1].net, "out");
  EXPECT_GT(result.nets[0].transitions, 0);
  // A pure-delay inverter reproduces every mid transition downstream.
  EXPECT_EQ(result.nets[0].transitions, result.nets[1].transitions);
  // The inverter's extra 5 ps shows up in the response-delay aggregate.
  EXPECT_GT(result.nets[1].response_delay.mean(),
            result.nets[0].response_delay.mean());
  // Pulse widths are preserved by a pure delay: identical histograms.
  EXPECT_EQ(result.nets[0].pulse_width.bins(),
            result.nets[1].pulse_width.bins());
  // Lookup by name; unknown nets are an error.
  EXPECT_EQ(&result.net("out"), &result.nets[1]);
  EXPECT_THROW(result.net("ghost"), ConfigError);
}

TEST(BatchRunner, MultiNetAggregatesAreThreadCountInvariant) {
  auto config = small_config();
  auto run = [&](std::size_t n_threads) {
    config.n_threads = n_threads;
    BatchRunner runner(two_stage_factory(),
                     std::vector<std::string>{"mid", "out"}, config);
    return runner.run();
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.nets.size(), parallel.nets.size());
  for (std::size_t n = 0; n < serial.nets.size(); ++n) {
    EXPECT_EQ(serial.nets[n].transitions, parallel.nets[n].transitions);
    EXPECT_EQ(serial.nets[n].pulse_width.bins(),
              parallel.nets[n].pulse_width.bins());
    EXPECT_EQ(serial.nets[n].pulse_width.sum(),
              parallel.nets[n].pulse_width.sum());
    EXPECT_EQ(serial.nets[n].response_delay.bins(),
              parallel.nets[n].response_delay.bins());
  }
}

TEST(BatchRunner, SingleNetPathIsUnchangedByTheMultiNetExtension) {
  // The string overload must produce the exact same aggregate as a
  // one-element vector (it delegates).
  const auto config = small_config();
  BatchRunner single(nor_factory(), "out", config);
  BatchRunner vec(nor_factory(), std::vector<std::string>{"out"}, config);
  const auto a = single.run();
  const auto b = vec.run();
  EXPECT_EQ(a.nets.front().transitions, b.nets.front().transitions);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.nets.front().pulse_width.bins(),
            b.nets.front().pulse_width.bins());
  EXPECT_EQ(a.nets.front().response_delay.sum(),
            b.nets.front().response_delay.sum());
  ASSERT_EQ(a.nets.size(), 1u);
  EXPECT_EQ(a.nets[0].net, "out");
}

TEST(BatchRunner, RepeatedRunsReusePersistentWorkersBitIdentically) {
  // Pool, clones, and arenas persist across run() calls; a second batch on
  // the same runner must reproduce the first exactly (arena reuse must not
  // leak any prior-run state into the traces).
  BatchConfig config = small_config();
  config.n_threads = 3;
  BatchRunner runner(nor_factory(), "out", config);
  const auto first = runner.run();
  const auto second = runner.run();
  EXPECT_EQ(first.total_events, second.total_events);
  EXPECT_EQ(first.events_per_run, second.events_per_run);
  EXPECT_EQ(first.nets.front().pulse_width.bins(),
            second.nets.front().pulse_width.bins());
  EXPECT_EQ(first.nets.front().response_delay.sum(),
            second.nets.front().response_delay.sum());
}

TEST(BatchRunner, C432NetlistIsBitIdenticalAcrossThreadCounts) {
  // Full-front-end determinism lock on the repo's c432-class netlist: the
  // per-worker clones come from CircuitBuilder (hybrid MIS + SIS cells),
  // and every aggregate must be independent of the executing thread count.
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const auto desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  const sim::CircuitBuilder builder(library);

  BatchConfig config = small_config();
  config.n_runs = 6;
  config.trace.n_transitions = 30;
  auto run_with = [&](std::size_t n_threads) {
    config.n_threads = n_threads;
    BatchRunner runner([&] { return builder.build(desc); }, desc.outputs,
                       config);
    return runner.run();
  };
  const auto one = run_with(1);
  EXPECT_GT(one.total_events, 0);
  for (std::size_t n_threads : {2u, 4u}) {
    const auto many = run_with(n_threads);
    EXPECT_EQ(many.total_events, one.total_events);
    EXPECT_EQ(many.events_per_run, one.events_per_run);
    ASSERT_EQ(many.nets.size(), one.nets.size());
    for (std::size_t n = 0; n < one.nets.size(); ++n) {
      EXPECT_EQ(many.nets[n].transitions, one.nets[n].transitions)
          << one.nets[n].net;
      EXPECT_EQ(many.nets[n].pulse_width.bins(),
                one.nets[n].pulse_width.bins());
      EXPECT_EQ(many.nets[n].pulse_width.sum(), one.nets[n].pulse_width.sum());
      EXPECT_EQ(many.nets[n].response_delay.bins(),
                one.nets[n].response_delay.bins());
      EXPECT_EQ(many.nets[n].response_delay.sum(),
                one.nets[n].response_delay.sum());
    }
  }
}

void expect_same_histogram(const Histogram& expected, const Histogram& actual,
                           const std::string& label) {
  EXPECT_EQ(expected.bins(), actual.bins()) << label;
  EXPECT_EQ(expected.underflow(), actual.underflow()) << label;
  EXPECT_EQ(expected.overflow(), actual.overflow()) << label;
  EXPECT_EQ(expected.count(), actual.count()) << label;
  EXPECT_EQ(expected.sum(), actual.sum()) << label;
}

TEST(BatchRunner, ResponseDelaysMatchABruteForceSweep) {
  // A response delay runs from the latest stimulus transition at or before
  // an output transition. The reference finds it by scanning every input's
  // captured trace and rebuilds both histograms and the run's critical
  // delay from scratch. GLOBAL stimuli leave some inputs without any
  // transition.
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const auto desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  const sim::CircuitBuilder builder(library);
  const std::size_t n_inputs = builder.build(desc)->n_inputs();
  const std::size_t n_outputs = desc.outputs.size();
  for (const bool global : {false, true}) {
    for (const std::uint64_t seed : {1u, 5u, 20221u}) {
      const std::string label = std::string(global ? "GLOBAL" : "LOCAL") +
                                " seed " + std::to_string(seed);
      BatchConfig config = small_config();
      config.n_runs = 1;
      config.base_seed = seed;
      config.trace.global_mode = global;
      config.trace.n_transitions = global ? 30 : 200;
      config.capture_run = 0;
      BatchRunner runner([&] { return builder.build(desc); }, desc.outputs,
                         config);
      const BatchResult result = runner.run();
      ASSERT_TRUE(result.all_ok()) << label;
      ASSERT_EQ(result.captured.size(), n_inputs + n_outputs) << label;
      std::size_t silent_inputs = 0;
      for (std::size_t i = 0; i < n_inputs; ++i) {
        if (result.captured[i].trace.empty()) ++silent_inputs;
      }
      if (global) {
        EXPECT_GT(silent_inputs, 0u) << label;
      }

      double critical = -1.0;
      std::uint64_t samples = 0;
      for (std::size_t n = 0; n < n_outputs; ++n) {
        const waveform::DigitalTrace& out =
            result.captured[n_inputs + n].trace;
        Histogram pulse(0.0, 4.0 * config.trace.mu, config.histogram_bins);
        Histogram response(0.0, config.trace.mu, config.histogram_bins);
        for (std::size_t k = 1; k < out.n_transitions(); ++k) {
          pulse.add(out.transitions()[k] - out.transitions()[k - 1]);
        }
        for (const double t : out.transitions()) {
          bool found = false;
          double latest = 0.0;
          for (std::size_t i = 0; i < n_inputs; ++i) {
            for (const double s : result.captured[i].trace.transitions()) {
              if (s <= t && (!found || s > latest)) {
                latest = s;
                found = true;
              }
            }
          }
          if (!found) continue;
          response.add(t - latest);
          critical = std::max(critical, t - latest);
        }
        samples += response.count();
        const std::string where = label + " net " + desc.outputs[n];
        ASSERT_EQ(result.nets[n].net, desc.outputs[n]) << where;
        expect_same_histogram(pulse, result.nets[n].pulse_width, where);
        expect_same_histogram(response, result.nets[n].response_delay, where);
      }
      EXPECT_GT(samples, 0u) << label;
      ASSERT_EQ(result.critical_delays.size(), 1u) << label;
      EXPECT_EQ(result.critical_delays[0], critical) << label;
    }
  }
}

TEST(BatchRunner, PerRunEventBudgetTerminatesRunsNotTheBatch) {
  // A budget every run exceeds: each run terminates with a structured
  // status, the batch itself completes, and the cut is deterministic.
  BatchConfig config = small_config();
  config.budget.max_events = 40;  // every run carries 60 stimulus edges
  auto run_with = [&](std::size_t n_threads) {
    config.n_threads = n_threads;
    BatchRunner runner(nor_factory(), "out", config);
    return runner.run();
  };
  const auto one = run_with(1);
  EXPECT_FALSE(one.all_ok());
  EXPECT_EQ(one.n_failed, config.n_runs);
  ASSERT_EQ(one.diagnostics.size(), config.n_runs);
  for (std::size_t run = 0; run < config.n_runs; ++run) {
    EXPECT_EQ(one.diagnostics[run].status, RunStatus::kBudgetExhausted);
    // The guard stops after exactly max_events processed events.
    EXPECT_EQ(one.events_per_run[run], 40);
    EXPECT_EQ(one.diagnostics[run].n_events, 40);
  }
  // Terminated runs contribute no histogram samples (partial traces would
  // skew the distributions silently).
  EXPECT_EQ(one.nets.front().pulse_width.count(), 0u);
  EXPECT_EQ(one.nets.front().response_delay.count(), 0u);
  for (std::size_t n_threads : {2u, 4u}) {
    const auto many = run_with(n_threads);
    EXPECT_EQ(many.n_failed, one.n_failed);
    EXPECT_EQ(many.events_per_run, one.events_per_run);
  }
}

TEST(BatchRunner, InjectedFaultIsolatesFailingRunsDeterministically) {
  util::FaultInjector::Scope scope;
  util::FaultInjector::reset_local_hits();
  const auto config = small_config();

  // Clean baseline, no plans armed.
  BatchRunner baseline_runner(nor_factory(), "out", config);
  const auto baseline = baseline_runner.run();
  ASSERT_TRUE(baseline.all_ok());
  ASSERT_EQ(baseline.diagnostics.size(), config.n_runs);

  // Measure each run's crossing-solve count with a counting no-op plan
  // (kForceBranch never fires a throw at this site): run i's content is a
  // pure function of (base_seed, first_run_index + i), so a single-run
  // batch re-based at run i replays exactly run i's content.
  std::vector<long> solves;
  for (std::size_t run = 0; run < config.n_runs; ++run) {
    util::FaultInjector::arm(
        "crossing.solve", {util::FaultInjector::Action::kForceBranch, 0, -1});
    BatchConfig single = config;
    single.n_runs = 1;
    single.first_run_index = run;
    BatchRunner one(nor_factory(), "out", single);
    ASSERT_TRUE(one.run().all_ok());
    solves.push_back(util::FaultInjector::fires("crossing.solve"));
  }
  const long lo = *std::min_element(solves.begin(), solves.end());
  const long hi = *std::max_element(solves.begin(), solves.end());
  ASSERT_LT(lo, hi) << "seeds produced identical solve counts; the "
                       "partial-failure threshold needs spread";
  // Runs needing more than `threshold` solves fail at solve `threshold`;
  // the rest never reach it. Per-run tallies reset at each run boundary,
  // so the failing set is a function of run content only.
  const long threshold = (lo + hi) / 2;

  auto faulted = [&](std::size_t n_threads) {
    util::FaultInjector::arm(
        "crossing.solve",
        {util::FaultInjector::Action::kConvergenceError, threshold, 1});
    BatchConfig c = config;
    c.n_threads = n_threads;
    BatchRunner runner(nor_factory(), "out", c);
    return runner.run();
  };
  const auto one = faulted(1);
  EXPECT_FALSE(one.all_ok());
  EXPECT_GT(one.n_failed, 0u);
  EXPECT_LT(one.n_failed, config.n_runs);
  ASSERT_EQ(one.diagnostics.size(), config.n_runs);
  for (std::size_t run = 0; run < config.n_runs; ++run) {
    const bool should_fail = solves[run] > threshold;
    EXPECT_EQ(one.diagnostics[run].status != RunStatus::kOk, should_fail)
        << "run " << run << " solves " << solves[run];
    if (should_fail) {
      EXPECT_EQ(one.diagnostics[run].status, RunStatus::kFailed);
      EXPECT_NE(one.diagnostics[run].error.find("injected fault"),
                std::string::npos)
          << one.diagnostics[run].error;
    } else {
      // Isolation: a surviving run is bit-identical to the clean baseline.
      EXPECT_EQ(one.events_per_run[run], baseline.events_per_run[run]);
      EXPECT_TRUE(one.diagnostics[run].error.empty());
    }
  }

  // The per-run outcome vector is thread-count invariant.
  for (std::size_t n_threads : {2u, 4u}) {
    const auto many = faulted(n_threads);
    EXPECT_EQ(many.n_failed, one.n_failed) << n_threads << " threads";
    EXPECT_EQ(many.events_per_run, one.events_per_run);
    ASSERT_EQ(many.diagnostics.size(), one.diagnostics.size());
    for (std::size_t run = 0; run < config.n_runs; ++run) {
      EXPECT_EQ(many.diagnostics[run].status, one.diagnostics[run].status);
    }
    EXPECT_EQ(many.nets.front().pulse_width.bins(),
              one.nets.front().pulse_width.bins());
    EXPECT_EQ(many.nets.front().response_delay.sum(),
              one.nets.front().response_delay.sum());
  }

  // The pool and its clones survive a faulted batch: a disarmed rerun on
  // the same runner reproduces the clean baseline bit-identically.
  BatchConfig c2 = config;
  c2.n_threads = 2;
  BatchRunner persistent(nor_factory(), "out", c2);
  util::FaultInjector::arm(
      "crossing.solve",
      {util::FaultInjector::Action::kConvergenceError, threshold, 1});
  EXPECT_EQ(persistent.run().n_failed, one.n_failed);
  util::FaultInjector::disarm("crossing.solve");
  const auto clean = persistent.run();
  EXPECT_TRUE(clean.all_ok());
  EXPECT_EQ(clean.events_per_run, baseline.events_per_run);
  EXPECT_EQ(clean.nets.front().pulse_width.bins(),
            baseline.nets.front().pulse_width.bins());
  EXPECT_EQ(clean.nets.front().response_delay.sum(),
            baseline.nets.front().response_delay.sum());
}

}  // namespace
}  // namespace charlie::sim
