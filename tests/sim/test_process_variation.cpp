// The statistical batch pipeline: ProcessVariation sampling (counter-based,
// order-independent), ProcessBinder channel retargeting, and BatchRunner's
// distribution queries (quantiles, yield, criticality) -- including the
// thread-count invariance and split-batch guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "core/gate_mode_tables.hpp"
#include "core/process_point.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/process_variation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace charlie::sim {
namespace {

ProcessVariation small_variation() {
  ProcessVariation v;
  v.vdd_sigma = 0.02;
  v.vth_sigma = 0.01;
  v.drive_sigma = 0.03;
  return v;
}

TEST(ProcessVariation, SampleIsPureFunctionOfSeedAndIndex) {
  const ProcessVariation v = small_variation();
  // Draw indices forward and backward: identical points either way.
  std::vector<core::ProcessPoint> forward, backward;
  for (std::uint64_t i = 0; i < 16; ++i) forward.push_back(v.sample(7, i));
  for (std::uint64_t i = 16; i-- > 0;) backward.push_back(v.sample(7, i));
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(forward[i].fingerprint(), backward[15 - i].fingerprint());
  }
  // Different index or seed -> different point.
  EXPECT_NE(v.sample(7, 0).fingerprint(), v.sample(7, 1).fingerprint());
  EXPECT_NE(v.sample(7, 0).fingerprint(), v.sample(8, 0).fingerprint());
}

TEST(ProcessVariation, SamplesStayInsideTheGridSpan) {
  // Every sample lies in the clamped box mean +/- max_sigma * sigma, the
  // span a batch checks for validity before its first run.
  const ProcessVariation v = small_variation();
  const double k = v.max_sigma;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const core::ProcessPoint p = v.sample(2022, i);
    EXPECT_GE(p.vdd_scale, 1.0 - k * v.vdd_sigma);
    EXPECT_LE(p.vdd_scale, 1.0 + k * v.vdd_sigma);
    EXPECT_GE(p.vth_shift, -k * v.vth_sigma);
    EXPECT_LE(p.vth_shift, k * v.vth_sigma);
    EXPECT_GE(p.drive_scale, 1.0 - k * v.drive_sigma);
    EXPECT_LE(p.drive_scale, 1.0 + k * v.drive_sigma);
  }
}

TEST(ProcessVariation, InactiveAxesStayExactlyNominal) {
  ProcessVariation v;
  v.vdd_sigma = 0.02;  // only the supply varies
  for (std::uint64_t i = 0; i < 32; ++i) {
    const core::ProcessPoint p = v.sample(1, i);
    EXPECT_EQ(p.vth_shift, 0.0);
    EXPECT_EQ(p.drive_scale, 1.0);
  }
  // Activating another sigma must not change the vdd stream (each axis
  // always consumes the same draws).
  ProcessVariation v2 = v;
  v2.drive_sigma = 0.05;
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(v2.sample(1, i).vdd_scale, v.sample(1, i).vdd_scale);
  }
}

TEST(ProcessVariation, ValidateRejectsBadKnobs) {
  ProcessVariation v = small_variation();
  v.vdd_sigma = -0.1;
  EXPECT_THROW(v.validate(), ConfigError);
  v = small_variation();
  v.drive_sigma = 0.4;  // 3.5 sigma crosses zero drive
  EXPECT_THROW(v.validate(), ConfigError);
  EXPECT_NO_THROW(small_variation().validate());
}

// A two-gate circuit sharing one NOR table plus one inertial inverter. The
// circuit stores its channels by value, so the fixture reaches them through
// Circuit::channel_as once construction has ended.
struct BoundCircuit {
  std::shared_ptr<const core::GateModeTables> tables;
  std::unique_ptr<Circuit> circuit;
  HybridGateChannel* nor_a = nullptr;
  HybridGateChannel* nor_b = nullptr;
  InertialChannel* inv = nullptr;
};

BoundCircuit bound_circuit() {
  BoundCircuit bc;
  bc.tables = core::GateModeTables::make(core::GateParams::nor2_reference());
  bc.circuit = std::make_unique<Circuit>();
  const auto a = bc.circuit->add_input("a");
  const auto b = bc.circuit->add_input("b");
  const auto m = bc.circuit->add_mis_gate(
      GateKind::kNor2, "m", {a, b},
      std::make_unique<HybridGateChannel>(bc.tables));
  const auto n = bc.circuit->add_mis_gate(
      GateKind::kNor2, "n", {m, b},
      std::make_unique<HybridGateChannel>(bc.tables));
  bc.circuit->add_gate(GateKind::kInv, "out", {n},
                       std::make_unique<InertialChannel>(10e-12, 12e-12));
  bc.nor_a = bc.circuit->channel_as<HybridGateChannel>(0);
  bc.nor_b = bc.circuit->channel_as<HybridGateChannel>(1);
  bc.inv = bc.circuit->channel_as<InertialChannel>(2);
  EXPECT_NE(bc.nor_a, nullptr);
  EXPECT_NE(bc.nor_b, nullptr);
  EXPECT_NE(bc.inv, nullptr);
  EXPECT_EQ(bc.circuit->channel_as<InertialChannel>(0), nullptr);
  EXPECT_EQ(bc.circuit->channel_as<WireChannel>(2), nullptr);
  return bc;
}

TEST(ProcessBinder, RebindsSharedTablesOnceAndRestoresNominalBitExactly) {
  BoundCircuit bc = bound_circuit();
  ProcessBinder binder(*bc.circuit);
  EXPECT_EQ(binder.n_hybrid_channels(), 2u);
  EXPECT_EQ(binder.n_inertial_channels(), 1u);
  EXPECT_EQ(binder.vdd_nominal(), bc.tables->gate_params().vdd);

  core::ProcessPoint corner;
  corner.vdd_scale = 1.03;
  corner.vth_shift = -0.01;
  corner.drive_scale = 0.95;
  binder.bind(corner);
  // Both channels moved off the nominal table, onto one shared local copy.
  EXPECT_NE(bc.nor_a->gate_tables().get(), bc.tables.get());
  EXPECT_EQ(bc.nor_a->gate_tables().get(), bc.nor_b->gate_tables().get());
  EXPECT_EQ(bc.nor_a->gate_tables()->vth(),
            corner.vdd_scale * bc.tables->gate_params().vdd / 2.0);
  // ...re-derived exactly: the tables a fresh derivation at the corner gives.
  const core::GateModeTables exact(
      bc.tables->gate_params().derive_for(corner));
  for (core::GateState st = 0; st < exact.n_states(); ++st) {
    EXPECT_EQ(bc.nor_a->gate_tables()->state_table(st).d,
              exact.state_table(st).d);
    EXPECT_EQ(bc.nor_a->gate_tables()->state_table(st).l1,
              exact.state_table(st).l1);
  }
  const double s = corner.resistance_scale(bc.tables->gate_params().vdd);
  EXPECT_DOUBLE_EQ(bc.inv->delay_up(), 10e-12 * s);
  EXPECT_DOUBLE_EQ(bc.inv->delay_down(), 12e-12 * s);

  // The nominal point restores the original shared tables and delays.
  binder.bind(core::ProcessPoint());
  EXPECT_EQ(bc.nor_a->gate_tables().get(), bc.tables.get());
  EXPECT_EQ(bc.nor_b->gate_tables().get(), bc.tables.get());
  EXPECT_EQ(bc.inv->delay_up(), 10e-12);
  EXPECT_EQ(bc.inv->delay_down(), 12e-12);
}

TEST(ProcessBinder, RebindingAPointAgainReproducesItsTablesBitExactly) {
  // The per-run path: one worker-local table set, rebound run after run.
  BoundCircuit bc = bound_circuit();
  ProcessBinder binder(*bc.circuit);
  core::ProcessPoint a;
  a.vdd_scale = 0.95;
  a.vth_shift = 0.01;
  core::ProcessPoint b;
  b.vdd_scale = 1.05;
  b.drive_scale = 0.9;
  binder.bind(a);
  const core::GateModeTables first = *bc.nor_a->gate_tables();
  binder.bind(b);
  EXPECT_NE(bc.nor_a->gate_tables()->state_table(0).d,
            first.state_table(0).d);
  binder.bind(a);
  const core::GateModeTables& again = *bc.nor_a->gate_tables();
  EXPECT_EQ(again.horizon(), first.horizon());
  EXPECT_EQ(again.vth(), first.vth());
  for (core::GateState st = 0; st < first.n_states(); ++st) {
    const core::ModeTable& x = again.state_table(st);
    const core::ModeTable& y = first.state_table(st);
    EXPECT_EQ(x.steady.x, y.steady.x);
    EXPECT_EQ(x.steady.y, y.steady.y);
    EXPECT_EQ(x.xp.x, y.xp.x);
    EXPECT_EQ(x.xp.y, y.xp.y);
    EXPECT_EQ(x.d, y.d);
    EXPECT_EQ(x.l1, y.l1);
    EXPECT_EQ(x.l2, y.l2);
    EXPECT_EQ(x.p1c, y.p1c);
    EXPECT_EQ(x.p1d, y.p1d);
  }
}

BatchConfig stat_config() {
  BatchConfig config;
  config.trace.mu = 150e-12;
  config.trace.sigma = 60e-12;
  config.trace.n_transitions = 40;
  config.n_runs = 24;
  config.base_seed = 2022;
  config.histogram_bins = 16;
  config.variation = small_variation();
  return config;
}

CircuitFactory nor_chain_factory() {
  const auto tables =
      core::GateModeTables::make(core::GateParams::nor2_reference());
  return [tables] {
    auto circuit = std::make_unique<Circuit>();
    const auto a = circuit->add_input("a");
    const auto b = circuit->add_input("b");
    const auto m = circuit->add_mis_gate(
        GateKind::kNor2, "m", {a, b},
        std::make_unique<HybridGateChannel>(tables));
    circuit->add_mis_gate(GateKind::kNor2, "out", {m, b},
                          std::make_unique<HybridGateChannel>(tables));
    return circuit;
  };
}

TEST(BatchStats, VariationChangesTheAggregateAndNominalDoesNot) {
  BatchConfig with = stat_config();
  BatchConfig without = stat_config();
  without.variation = ProcessVariation{};  // disabled
  BatchRunner a(nor_chain_factory(), "out", with);
  BatchRunner b(nor_chain_factory(), "out", without);
  const auto va = a.run();
  const auto vb = b.run();
  ASSERT_TRUE(va.all_ok());
  ASSERT_TRUE(vb.all_ok());
  // Same stimuli, different process corners: the delay distribution moves.
  EXPECT_NE(va.nets.front().response_delay.sum(),
            vb.nets.front().response_delay.sum());
  // Nominal batches still produce the statistical queries.
  EXPECT_EQ(vb.stats.n_samples, vb.n_runs);
  EXPECT_GT(vb.stats.mean, 0.0);
}

TEST(BatchStats, QuantileYieldAndCriticalityAreInternallyConsistent) {
  BatchConfig config = stat_config();
  config.quantiles = {0.5, 0.95};
  BatchRunner runner(nor_chain_factory(),
                     std::vector<std::string>{"m", "out"}, config);
  const auto result = runner.run();
  ASSERT_TRUE(result.all_ok());
  const BatchStats& st = result.stats;
  ASSERT_EQ(st.n_samples, result.n_runs);

  // Quantiles are order statistics of the per-run critical delays.
  std::vector<double> sorted;
  for (const double d : result.critical_delays) {
    ASSERT_GE(d, 0.0);
    sorted.push_back(d);
  }
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(st.min, sorted.front());
  EXPECT_EQ(st.max, sorted.back());
  ASSERT_EQ(st.quantiles.size(), 2u);
  EXPECT_EQ(st.quantiles[0].first, 0.5);
  EXPECT_EQ(st.quantiles[0].second,
            sorted[(sorted.size() + 1) / 2 - 1]);  // nearest rank, n even
  EXPECT_LE(st.quantiles[0].second, st.quantiles[1].second);
  EXPECT_GE(st.mean, st.min);
  EXPECT_LE(st.mean, st.max);
  EXPECT_GT(st.stddev, 0.0);

  // Criticality counts partition the sampled runs across observed nets.
  ASSERT_EQ(st.criticality.size(), 2u);
  EXPECT_EQ(st.criticality[0] + st.criticality[1], st.n_samples);

  // Yield against a deadline at the maximum is 100%; just below the
  // minimum it is 0%.
  BatchConfig all = config;
  all.stat_deadline = st.max;
  BatchRunner all_runner(nor_chain_factory(),
                         std::vector<std::string>{"m", "out"}, all);
  const auto all_result = all_runner.run();
  EXPECT_EQ(all_result.stats.n_meeting_deadline, st.n_samples);
  EXPECT_EQ(all_result.stats.yield, 1.0);
  BatchConfig none = config;
  none.stat_deadline = st.min * 0.5;
  BatchRunner none_runner(nor_chain_factory(),
                          std::vector<std::string>{"m", "out"}, none);
  EXPECT_EQ(none_runner.run().stats.yield, 0.0);
}

TEST(BatchStats, SplitBatchViaFirstRunIndexMatchesTheFullBatch) {
  BatchConfig config = stat_config();
  config.n_runs = 12;
  BatchRunner full(nor_chain_factory(), "out", config);
  const auto whole = full.run();

  std::vector<long> events;
  std::vector<double> delays;
  for (std::uint64_t half = 0; half < 2; ++half) {
    BatchConfig part = config;
    part.n_runs = 6;
    part.first_run_index = half * 6;
    BatchRunner runner(nor_chain_factory(), "out", part);
    const auto result = runner.run();
    events.insert(events.end(), result.events_per_run.begin(),
                  result.events_per_run.end());
    delays.insert(delays.end(), result.critical_delays.begin(),
                  result.critical_delays.end());
  }
  // Per-run content is a pure function of the global run index: the split
  // halves reproduce the full batch exactly, run for run.
  EXPECT_EQ(events, whole.events_per_run);
  EXPECT_EQ(delays, whole.critical_delays);
}

TEST(BatchStats, FailedRunsAreExcludedFromTheStatistics) {
  BatchConfig config = stat_config();
  config.budget.max_events = 30;  // every run trips the budget
  BatchRunner runner(nor_chain_factory(), "out", config);
  const auto result = runner.run();
  EXPECT_EQ(result.n_failed, result.n_runs);
  EXPECT_EQ(result.stats.n_samples, 0u);
  ASSERT_EQ(result.critical_delays.size(), result.n_runs);
  for (const double d : result.critical_delays) EXPECT_EQ(d, -1.0);
  // Empty-sample statistics stay well-defined.
  EXPECT_EQ(result.stats.mean, 0.0);
  ASSERT_EQ(result.stats.quantiles.size(), config.quantiles.size());
  for (const auto& [q, value] : result.stats.quantiles) {
    EXPECT_EQ(value, 0.0);
  }
}

TEST(BatchStats, C432VariationBatchIsBitIdenticalAcrossThreadCounts) {
  // The acceptance lock: a >= 200-sample variation batch over the repo's
  // c432-class netlist (hybrid MIS + SIS cells through CircuitBuilder)
  // produces bit-identical statistical aggregates at 1, 2, and 4 threads.
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const auto desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  const sim::CircuitBuilder builder(library);

  BatchConfig config = stat_config();
  config.n_runs = 200;
  config.trace.n_transitions = 12;
  config.stat_deadline = 1e-9;
  auto run_with = [&](std::size_t n_threads) {
    config.n_threads = n_threads;
    BatchRunner runner([&] { return builder.build(desc); }, desc.outputs,
                       config);
    return runner.run();
  };
  const auto one = run_with(1);
  EXPECT_GT(one.stats.n_samples, 0u);
  EXPECT_GT(one.stats.stddev, 0.0);  // variation really spreads the delays
  for (std::size_t n_threads : {2u, 4u}) {
    const auto many = run_with(n_threads);
    EXPECT_EQ(many.events_per_run, one.events_per_run);
    EXPECT_EQ(many.critical_delays, one.critical_delays);
    EXPECT_EQ(many.stats.n_samples, one.stats.n_samples);
    EXPECT_EQ(many.stats.mean, one.stats.mean);
    EXPECT_EQ(many.stats.stddev, one.stats.stddev);
    EXPECT_EQ(many.stats.min, one.stats.min);
    EXPECT_EQ(many.stats.max, one.stats.max);
    EXPECT_EQ(many.stats.quantiles, one.stats.quantiles);
    EXPECT_EQ(many.stats.n_meeting_deadline, one.stats.n_meeting_deadline);
    EXPECT_EQ(many.stats.yield, one.stats.yield);
    EXPECT_EQ(many.stats.criticality, one.stats.criticality);
    ASSERT_EQ(many.nets.size(), one.nets.size());
    for (std::size_t n = 0; n < one.nets.size(); ++n) {
      EXPECT_EQ(many.nets[n].response_delay.sum(),
                one.nets[n].response_delay.sum());
    }
  }
}

TEST(BatchStats, OverdriveClosingSpanThrowsBeforeAnyRun) {
  // vth_shift at +3.5 sigma = 0.7 V closes the reference cells' 0.56 V
  // overdrive. Most samples sit far inside the span and would run; the
  // batch still refuses it up front. Runs isolate their own failures, so
  // a throw out of run() can only come from the set-up.
  BatchConfig config = stat_config();
  config.variation = ProcessVariation{};
  config.variation.vth_sigma = 0.2;
  ASSERT_NO_THROW(config.variation.validate());
  ASSERT_NO_THROW(config.variation.sample(config.base_seed, 0)
                      .resistance_scale(0.8));
  BatchRunner runner(nor_chain_factory(), "out", config);
  EXPECT_THROW(runner.run(), ConfigError);
  EXPECT_THROW(runner.run(), ConfigError);  // no half-built runner remains
}

TEST(BatchStats, RunCSimulatesExactlyTheAtCornerCircuit) {
  // Monte-Carlo run c is STA corner c: it simulates, bit for bit, the
  // circuit CircuitBuilder builds from library.at_corner(sample(seed, c)),
  // driven by the stimuli the batch draws for run c.
  const auto library = std::make_shared<const cell::CellLibrary>(
      cell::CellLibrary::reference());
  const auto desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  const CircuitBuilder builder(library);
  BatchConfig config = stat_config();
  config.n_runs = 6;
  config.n_threads = 2;
  for (const long c : {0L, 3L, 5L}) {
    config.capture_run = c;
    BatchRunner runner([&] { return builder.build(desc); }, desc.outputs,
                       config);
    const BatchResult batch = runner.run();
    ASSERT_TRUE(batch.all_ok());

    const auto index = static_cast<std::uint64_t>(c);
    const CircuitBuilder corner(std::make_shared<const cell::CellLibrary>(
        library->at_corner(config.variation.sample(config.base_seed, index))));
    const auto circuit = corner.build(desc);
    util::Rng rng(util::CounterRng(config.base_seed, index).next_u64());
    const auto stimuli =
        waveform::generate_traces(config.trace, circuit->n_inputs(), rng);
    const auto result = circuit->simulate(
        stimuli, 0.0,
        waveform::end_time(stimuli, config.trace.t_start, config.t_settle));
    ASSERT_TRUE(result.ok());

    std::vector<Circuit::NetId> nets;
    for (std::size_t i = 0; i < circuit->n_inputs(); ++i) {
      nets.push_back(circuit->input_net(i));
    }
    for (const auto& name : desc.outputs) {
      nets.push_back(circuit->find_net(name));
    }
    ASSERT_EQ(batch.captured.size(), nets.size());
    std::size_t n_transitions = 0;
    for (std::size_t k = 0; k < nets.size(); ++k) {
      const auto& got = batch.captured[k];
      const auto& want = result.trace(nets[k]);
      ASSERT_EQ(got.net, circuit->net_name(nets[k]));
      EXPECT_EQ(got.trace.initial_value(), want.initial_value()) << got.net;
      EXPECT_EQ(got.trace.transitions(), want.transitions())
          << "run " << c << " net " << got.net;
      n_transitions += want.n_transitions();
    }
    EXPECT_GT(n_transitions, 0u);
  }
}

}  // namespace
}  // namespace charlie::sim
