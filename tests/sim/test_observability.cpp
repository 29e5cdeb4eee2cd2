// Observability locks for the parallel engines: the metrics a run exports
// must be bit-identical at any thread count (run-order reduction), capture
// and per-(shard, window) accounting must agree with the aggregates, and
// armed tracing must see exactly the spans the execution structure
// predicts. Suites are named Batch runner/ShardedCircuit so the TSan suite
// regex (tools/run_tsan_tests.sh) exercises armed tracing under both pools.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "cell/netlist_gen.hpp"
#include "core/gate_mode_tables.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/inertial.hpp"
#include "sim/sharded_circuit.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"

namespace charlie::sim {
namespace {

// Every test that arms the recorder disarms it on exit, even on failure.
class ObsGuard {
 public:
  ~ObsGuard() { obs::TraceRecorder::stop(); }
};

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

int count_spans(const obs::TraceRecorder::Snapshot& snapshot,
                const std::string& name) {
  int n = 0;
  for (const obs::TraceEvent& event : snapshot.events) {
    if (event.name != nullptr && name == event.name) ++n;
  }
  return n;
}

TEST(BatchRunnerObservability, MetricsCoverTheBatch) {
  BatchRunner runner(nor_factory(), "out", small_config());
  const auto result = runner.run();
  EXPECT_EQ(result.metrics.counter("batch.runs"),
            static_cast<long long>(result.n_runs));
  EXPECT_EQ(result.metrics.counter("batch.runs_failed"), 0);
  EXPECT_EQ(result.metrics.counter("batch.events"), result.total_events);
  ASSERT_NE(result.metrics.histogram("sim.events_per_run"), nullptr);
  EXPECT_EQ(result.metrics.histogram("sim.events_per_run")->count(),
            result.n_runs);
  EXPECT_DOUBLE_EQ(result.metrics.histogram("sim.events_per_run")->sum(),
                   static_cast<double>(result.total_events));
  // Peak event-heap depth was observed once per run and is a real depth.
  ASSERT_NE(result.metrics.histogram("sim.max_heap_depth"), nullptr);
  EXPECT_EQ(result.metrics.histogram("sim.max_heap_depth")->count(),
            result.n_runs);
  EXPECT_GE(result.metrics.histogram("sim.max_heap_depth")->min(), 1.0);
  // Guard counters exist even when everything stayed on the fast path.
  EXPECT_NE(result.metrics.to_json().find("run.newton_brent_fallbacks"),
            std::string::npos);
}

// Two equal-delay buffers on one input fire together after every input
// transition that survives them: one equal-time tie per firing of `p`.
CircuitFactory twin_buffer_factory() {
  return [] {
    auto circuit = std::make_unique<Circuit>();
    const auto a = circuit->add_input("a");
    for (const char* name : {"p", "q"}) {
      circuit->add_gate(GateKind::kBuf, name, {a},
                        std::make_unique<InertialChannel>(10e-12, 10e-12));
    }
    return circuit;
  };
}

TEST(BatchRunnerObservability, EqualTimeTiesCountEveryRun) {
  BatchConfig config = small_config();
  config.n_threads = 2;
  BatchRunner runner(twin_buffer_factory(), std::vector<std::string>{"p", "q"},
                     config);
  const auto result = runner.run();
  ASSERT_TRUE(result.all_ok());
  EXPECT_GT(result.net("p").transitions, 0);
  EXPECT_EQ(result.net("q").transitions, result.net("p").transitions);
  EXPECT_EQ(result.metrics.counter("sim.equal_time_ties"),
            result.net("p").transitions);
  // A tie-free circuit still exports the counter, at zero.
  const auto untied = BatchRunner(nor_factory(), "out", config).run();
  EXPECT_NE(untied.metrics.to_json().find("sim.equal_time_ties"),
            std::string::npos);
}

TEST(BatchRunnerObservability, MetricsBitIdenticalAcrossThreadCounts) {
  auto metrics_with = [&](std::size_t n_threads) {
    BatchConfig config = small_config();
    config.n_threads = n_threads;
    BatchRunner runner(nor_factory(), "out", config);
    return runner.run().metrics.to_json();
  };
  const std::string one = metrics_with(1);
  EXPECT_EQ(metrics_with(2), one);
  EXPECT_EQ(metrics_with(4), one);
}

TEST(BatchRunnerObservability, CaptureRunExportsThatRunsTraces) {
  BatchConfig config = small_config();
  config.capture_run = 2;
  config.n_threads = 2;
  BatchRunner runner(nor_factory(), "out", config);
  const auto result = runner.run();
  // Inputs first (declaration order), then the observed net.
  ASSERT_EQ(result.captured.size(), 3u);
  EXPECT_EQ(result.captured[0].net, "a");
  EXPECT_EQ(result.captured[1].net, "b");
  EXPECT_EQ(result.captured[2].net, "out");
  for (const auto& captured : result.captured) {
    EXPECT_GT(captured.trace.n_transitions(), 0u) << captured.net;
  }
  // The captured run is picked by seed offset, so the traces are the same
  // whichever worker executed it.
  BatchConfig single = config;
  single.n_threads = 1;
  const auto reference = BatchRunner(nor_factory(), "out", single).run();
  ASSERT_EQ(reference.captured.size(), result.captured.size());
  for (std::size_t i = 0; i < result.captured.size(); ++i) {
    EXPECT_EQ(result.captured[i].trace.initial_value(),
              reference.captured[i].trace.initial_value());
    EXPECT_EQ(result.captured[i].trace.transitions(),
              reference.captured[i].trace.transitions());
  }
  // Out-of-range index captures nothing.
  BatchConfig off = config;
  off.capture_run = 99;
  EXPECT_TRUE(BatchRunner(nor_factory(), "out", off).run().captured.empty());
}

TEST(BatchRunnerObservability, ArmedTracingSeesEveryRun) {
  ObsGuard guard;
  BatchConfig config = small_config();
  config.n_threads = 2;
  BatchRunner runner(nor_factory(), "out", config);
  obs::TraceRecorder::start();
  const auto result = runner.run();
  obs::TraceRecorder::stop();
  const auto snapshot = obs::TraceRecorder::collect();
  EXPECT_EQ(snapshot.n_dropped, 0u);
  EXPECT_EQ(count_spans(snapshot, "batch.run"),
            static_cast<int>(result.n_runs));
  // Each run advances its session at least once.
  EXPECT_GE(count_spans(snapshot, "sim.advance"),
            static_cast<int>(result.n_runs));
  // The batch.run span carries the run index and its event count.
  long long events_from_spans = 0;
  for (const obs::TraceEvent& event : snapshot.events) {
    if (event.name != nullptr && std::string(event.name) == "batch.run") {
      events_from_spans += event.v1;
    }
  }
  EXPECT_EQ(events_from_spans, result.total_events);
}

const cell::NetlistDesc& c432() {
  static const cell::NetlistDesc desc = cell::read_netlist_file(
      CHARLIE_SOURCE_DIR "/examples/netlists/c432.net");
  return desc;
}

CircuitBuilder builder() {
  static const auto library =
      std::make_shared<const cell::CellLibrary>(cell::CellLibrary::reference());
  return CircuitBuilder(library);
}

std::vector<waveform::DigitalTrace> stimuli_for(std::size_t n_inputs) {
  waveform::TraceConfig config;
  config.mu = 150e-12;
  config.sigma = 60e-12;
  config.n_transitions = 40;
  util::Rng rng(2022);
  return waveform::generate_traces(config, n_inputs, rng);
}

double t_end_for(const std::vector<waveform::DigitalTrace>& stimuli) {
  return waveform::end_time(stimuli, 0.0, 2e-9);
}

TEST(ShardedCircuitObservability, ShardWindowEventsAccountForEverything) {
  const std::size_t n_shards = 3;
  const auto sharded = builder().build_sharded(c432(), n_shards);
  const auto stimuli = stimuli_for(c432().inputs.size());
  const auto result = sharded->simulate(stimuli, 0.0, t_end_for(stimuli));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.shard_window_events.size(), n_shards);
  long total = 0;
  for (const auto& per_window : result.shard_window_events) {
    EXPECT_EQ(per_window.size(), result.n_windows);
    for (const long n : per_window) total += n;
  }
  // Per-task deltas count what each shard session processed, which
  // includes pulled upstream transitions and primary inputs fanned out to
  // several shards; the global n_events de-duplicates those, so the task
  // view is an upper bound that exceeds it by at least the boundary
  // traffic.
  const long long boundary =
      result.metrics.counter("shard.boundary_transitions");
  EXPECT_GT(boundary, 0);
  EXPECT_GE(total, result.n_events + boundary);
  // c432 is busy enough that the partition is not perfectly balanced but
  // no shard can exceed doing everything.
  EXPECT_GE(result.load_imbalance(), 1.0);
  EXPECT_LE(result.load_imbalance(), static_cast<double>(n_shards));
  // Metrics mirror the same accounting.
  EXPECT_EQ(result.metrics.counter("shard.count"),
            static_cast<long long>(n_shards));
  ASSERT_NE(result.metrics.histogram("shard.window_events"), nullptr);
  EXPECT_EQ(result.metrics.histogram("shard.window_events")->count(),
            n_shards * result.n_windows);
  ASSERT_NE(result.metrics.histogram("shard.events"), nullptr);
  EXPECT_EQ(result.metrics.histogram("shard.events")->count(), n_shards);
  EXPECT_DOUBLE_EQ(result.metrics.histogram("shard.events")->sum(),
                   static_cast<double>(total));
}

// shard.boundary_transitions recounted from a run: for each block of
// result.cut, the transitions of every distinct net it reads from an
// earlier block. `twin` is a build() of the same design, for its nets.
long long upstream_transitions(const Circuit& twin,
                               const ShardedCircuit::Result& result) {
  const std::vector<std::size_t>& cut = result.cut;
  const std::size_t n_blocks = cut.size() - 1;
  // The block driving each net; n_blocks for a primary input.
  std::vector<std::size_t> driver_block(twin.n_nets(), n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    for (std::size_t g = cut[b]; g < cut[b + 1]; ++g) {
      driver_block[static_cast<std::size_t>(twin.gate_output(g))] = b;
    }
  }
  long long total = 0;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    std::set<Circuit::NetId> upstream;
    for (std::size_t g = cut[b]; g < cut[b + 1]; ++g) {
      for (const Circuit::NetId net : twin.gate_inputs(g)) {
        if (driver_block[static_cast<std::size_t>(net)] < b) {
          upstream.insert(net);
        }
      }
    }
    for (const Circuit::NetId net : upstream) {
      total += static_cast<long long>(
          result.traces[static_cast<std::size_t>(net)].n_transitions());
    }
  }
  return total;
}

TEST(ShardedCircuitObservability, BoundaryTransitionsCountWhatBlocksRead) {
  // Each block pulls every transition of each distinct net it reads from
  // an earlier block, once, whatever the thread count: on c432 cut into 4
  // blocks, and on a generated design larger than one block.
  cell::NetlistGenConfig gen;
  gen.n_gates = Circuit::kGatesPerBlock + 1000;
  gen.seed = 5;
  const cell::NetlistDesc generated = cell::generate_netlist(gen);
  const struct {
    const cell::NetlistDesc* desc;
    std::size_t min_blocks;
  } designs[] = {{&c432(), 4}, {&generated, 1}};
  for (const auto& design : designs) {
    const auto twin = builder().build(*design.desc);
    const auto stimuli = stimuli_for(design.desc->inputs.size());
    const double t_end = t_end_for(stimuli);
    for (const std::size_t threads : {1u, 4u}) {
      const auto sharded =
          builder().build_sharded(*design.desc, design.min_blocks);
      ASSERT_GT(sharded->n_shards(), 1u);
      ShardedSimConfig config;
      config.n_threads = threads;
      const auto result = sharded->simulate(stimuli, 0.0, t_end, config);
      ASSERT_TRUE(result.ok());
      const long long pulled =
          result.metrics.counter("shard.boundary_transitions");
      EXPECT_GT(pulled, 0);
      EXPECT_EQ(pulled, upstream_transitions(*twin, result))
          << twin->n_gates() << " gates, " << threads << " threads";
    }
  }
}

TEST(ShardedCircuitObservability, SingleShardTaskViewMatchesGlobalCount) {
  // With one shard there is no boundary traffic and no input fanout
  // duplication: the task view and the global count must agree exactly.
  const auto sharded = builder().build_sharded(c432(), 1);
  const auto stimuli = stimuli_for(c432().inputs.size());
  const auto result = sharded->simulate(stimuli, 0.0, t_end_for(stimuli));
  ASSERT_TRUE(result.ok());
  long total = 0;
  for (const auto& per_window : result.shard_window_events) {
    for (const long n : per_window) total += n;
  }
  EXPECT_EQ(total, result.n_events);
  EXPECT_EQ(result.metrics.counter("shard.boundary_transitions"), 0);
  EXPECT_DOUBLE_EQ(result.load_imbalance(), 1.0);
}

TEST(ShardedCircuitObservability, MetricsBitIdenticalAcrossThreadCounts) {
  // A completed run re-cuts its instance, so each compared run starts from
  // a fresh build_sharded: same run history, same cut. With the default
  // windows and with 64 short ones, where most tasks start while other
  // blocks are still appending.
  const auto stimuli = stimuli_for(c432().inputs.size());
  const double t_end = t_end_for(stimuli);
  for (const double window : {0.0, t_end / 64}) {
    auto metrics_with = [&](std::size_t n_threads) {
      const auto sharded = builder().build_sharded(c432(), 4);
      ShardedSimConfig config;
      config.n_threads = n_threads;
      config.window = window;
      return sharded->simulate(stimuli, 0.0, t_end, config).metrics.to_json();
    };
    const std::string one = metrics_with(1);
    EXPECT_EQ(metrics_with(2), one) << "window " << window;
    EXPECT_EQ(metrics_with(4), one) << "window " << window;
  }
}

TEST(ShardedCircuitObservability, EqualTimeTiesSumOverBlocks) {
  // Each block counts the ties among the events it processes: one block
  // sees the whole run's ties, and separate blocks for the two buffers see
  // none, because each processes only its own firings.
  const auto stimuli = stimuli_for(1);
  const double t_end = t_end_for(stimuli);
  const auto mono = twin_buffer_factory()()->simulate(stimuli, 0.0, t_end);
  ASSERT_GT(mono.equal_time_ties, 0);
  ShardedCircuit one(twin_buffer_factory()(), 1);
  EXPECT_EQ(one.simulate(stimuli, 0.0, t_end)
                .metrics.counter("sim.equal_time_ties"),
            mono.equal_time_ties);
  ShardedCircuit two(twin_buffer_factory()(), 2);
  ASSERT_EQ(two.n_shards(), 2u);
  const auto split = two.simulate(stimuli, 0.0, t_end);
  EXPECT_EQ(split.metrics.counter("sim.equal_time_ties"), 0);
  EXPECT_NE(split.metrics.to_json().find("sim.equal_time_ties"),
            std::string::npos);
}

TEST(ShardedCircuitObservability, ArmedTracingSeesEveryWavefrontTask) {
  ObsGuard guard;
  const std::size_t n_shards = 3;
  const auto sharded = builder().build_sharded(c432(), n_shards);
  const auto stimuli = stimuli_for(c432().inputs.size());
  ShardedSimConfig config;
  config.n_threads = 2;
  obs::TraceRecorder::start();
  const auto result = sharded->simulate(stimuli, 0.0, t_end_for(stimuli),
                                        config);
  obs::TraceRecorder::stop();
  ASSERT_TRUE(result.ok());
  const auto snapshot = obs::TraceRecorder::collect();
  EXPECT_EQ(snapshot.n_dropped, 0u);
  // One shard.task span per (shard, window) wavefront task.
  EXPECT_EQ(count_spans(snapshot, "shard.task"),
            static_cast<int>(n_shards * result.n_windows));
  // Tracing is pure observation: the run still matches an untraced one
  // with the same run history (a fresh instance).
  const auto untraced_sharded = builder().build_sharded(c432(), n_shards);
  const auto untraced = untraced_sharded->simulate(
      stimuli, 0.0, t_end_for(stimuli), config);
  EXPECT_EQ(result.n_events, untraced.n_events);
  EXPECT_EQ(result.metrics.to_json(), untraced.metrics.to_json());
}

}  // namespace
}  // namespace charlie::sim
