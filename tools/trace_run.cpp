// Observability driver: run a netlist through the event engine and export
// every observability artifact in one shot -- execution trace (Chrome
// trace-event JSON, load in Perfetto / chrome://tracing), metrics registry
// JSON, and VCD waveforms (load in GTKWave).
//
//   trace_run --netlist examples/netlists/c432.net --runs 8 --threads 4
//             --trace-out run.trace.json --metrics-out run.metrics.json
//             --vcd-out run.vcd
//   trace_run --netlist big.net --shards 4 --trace-out wavefront.json
//   trace_run --netlist big.net --shards 4 --repeat 2
//
// Flags:
//   --netlist FILE    netlist to simulate (docs/netlist_format.md); required
//   --runs N          Monte-Carlo batch size (default 4; batch mode only)
//   --threads N       worker threads (default 0 = hardware concurrency)
//   --shards K        K > 0 switches to the sharded single-circuit engine:
//                     one simulation of the netlist partitioned into at
//                     least K blocks (a large netlist runs more, cache-
//                     sized ones; the summary prints the count), traced
//                     per (block, window) wavefront task
//   --repeat N        sharded mode: simulate the same stimuli N times on one
//                     instance (each completed run re-cuts the shards on its
//                     measured work) and print every run's wall time, engine
//                     events and load imbalance; artifacts come from the
//                     last run (default 1)
//   --seed S          stimulus seed (default 2022)
//   --transitions N   stimulus transitions per input (default 64)
//   --trace-out FILE  Chrome trace-event JSON of the armed run
//   --metrics-out FILE metrics registry JSON (schema: docs/observability.md)
//   --vcd-out FILE    VCD waveforms (batch: run 0's inputs + observed nets;
//                     sharded: the last run's inputs + outputs)
//
// The tracer is armed for the (last) simulation only when --trace-out is
// given; with no output flags the tool still runs and prints the summary
// (useful as a smoke check). Exit status 0 iff every run finished kOk.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/sharded_circuit.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/generator.hpp"
#include "waveform/vcd.hpp"

using namespace charlie;

int main(int argc, char** argv) {
  try {
    util::Cli cli(argc, argv);
    const std::string netlist_path = cli.get_string("--netlist", "");
    const std::size_t n_runs = cli.get_count("--runs", 4, 1);
    const std::size_t n_threads = cli.get_count("--threads", 0);
    const std::size_t n_shards = cli.get_count("--shards", 0);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("--seed", 2022));
    const std::size_t n_transitions = cli.get_count("--transitions", 64, 1);
    const std::string trace_out = cli.get_string("--trace-out", "");
    const std::string metrics_out = cli.get_string("--metrics-out", "");
    const std::string vcd_out = cli.get_string("--vcd-out", "");
    const std::size_t n_repeat = cli.get_count("--repeat", 1, 1);
    cli.finish();
    if (netlist_path.empty()) throw ConfigError("--netlist is required");
    if (n_repeat > 1 && n_shards == 0) {
      throw ConfigError("--repeat needs --shards");
    }

    const cell::NetlistDesc desc = cell::read_netlist_file(netlist_path);
    const auto library = std::make_shared<const cell::CellLibrary>(
        cell::CellLibrary::reference());
    const sim::CircuitBuilder builder(library);
    std::vector<std::string> out_nets = desc.outputs;
    if (out_nets.empty() && !desc.instances.empty()) {
      out_nets.push_back(desc.instances.back().output);
    }

    waveform::TraceConfig trace_config;
    trace_config.mu = 150e-12;
    trace_config.sigma = 60e-12;
    trace_config.n_transitions = n_transitions;

    obs::MetricsRegistry metrics;
    std::vector<waveform::VcdDigitalSignal> vcd_signals;
    bool all_ok = true;

    sim::BatchResult batch;           // kept alive for captured traces
    // Backing storage for vcd_signals in the sharded path (the batch path
    // borrows BatchResult::captured instead); keeps pointers into `circuit`.
    sim::ShardedCircuit::Result sharded;
    std::unique_ptr<sim::ShardedCircuit> circuit;
    if (n_shards > 0) {
      // Sharded mode: one simulation of the whole netlist, wavefront-
      // parallel across shards.
      circuit = builder.build_sharded(desc, n_shards);
      util::Rng rng(seed);
      const auto stimuli = waveform::generate_traces(
          trace_config, circuit->n_inputs(), rng);
      double t_last = trace_config.t_start;
      for (const auto& trace : stimuli) {
        if (!trace.empty()) {
          t_last = std::max(t_last, trace.transitions().back());
        }
      }
      sim::ShardedSimConfig config;
      config.n_threads = n_threads;
      for (std::size_t run = 1; run <= n_repeat; ++run) {
        if (run == n_repeat && !trace_out.empty()) {
          obs::TraceRecorder::start();
        }
        const auto t0 = std::chrono::steady_clock::now();
        sharded = circuit->simulate(stimuli, 0.0, t_last + 1e-9, config);
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - t0;
        all_ok = all_ok && sharded.ok();
        if (n_repeat > 1) {
          const std::string label =
              std::to_string(run) + "/" + std::to_string(n_repeat);
          std::printf("run %-12s: %.3f s wall, %ld events, "
                      "load imbalance %.3f\n",
                      label.c_str(), wall.count(), sharded.n_events,
                      sharded.load_imbalance());
        }
      }
      metrics = sharded.metrics;
      std::printf("mode            : sharded (%zu blocks, %zu windows)\n",
                  circuit->n_shards(), sharded.n_windows);
      std::printf("engine events   : %ld\n", sharded.n_events);
      std::printf("load imbalance  : %.3f (1.0 = balanced)\n",
                  sharded.load_imbalance());
      if (!vcd_out.empty()) {
        for (std::size_t i = 0; i < desc.inputs.size(); ++i) {
          vcd_signals.push_back(
              {desc.inputs[i], &sharded.trace(desc.inputs[i])});
        }
        for (const std::string& net : out_nets) {
          vcd_signals.push_back({net, &sharded.trace(net)});
        }
      }
    } else {
      sim::BatchConfig config;
      config.trace = trace_config;
      config.n_runs = n_runs;
      config.n_threads = n_threads;
      config.base_seed = seed;
      if (!vcd_out.empty()) config.capture_run = 0;
      if (!trace_out.empty()) obs::TraceRecorder::start();
      sim::BatchRunner runner([&] { return builder.build(desc); }, out_nets,
                              config);
      batch = runner.run();
      all_ok = batch.all_ok();
      metrics = batch.metrics;
      std::printf("mode            : batch (%zu runs, %zu threads)\n",
                  batch.n_runs, batch.n_threads);
      std::printf("engine events   : %lld\n", batch.total_events);
      if (!vcd_out.empty()) {
        for (const auto& captured : batch.captured) {
          vcd_signals.push_back({captured.net, &captured.trace});
        }
      }
    }

    if (!trace_out.empty()) {
      obs::TraceRecorder::stop();
      const auto snapshot = obs::TraceRecorder::collect();
      obs::write_chrome_trace(snapshot, trace_out);
      metrics.add("trace.events",
                  static_cast<long long>(snapshot.events.size()));
      metrics.add("trace.dropped",
                  static_cast<long long>(snapshot.n_dropped));
      std::printf("trace           : %zu events -> %s%s\n",
                  snapshot.events.size(), trace_out.c_str(),
                  snapshot.n_dropped > 0 ? " (ring overflow, raise capacity)"
                                         : "");
    }
    if (!metrics_out.empty()) {
      metrics.write_json(metrics_out);
      std::printf("metrics         : %s\n", metrics_out.c_str());
    }
    if (!vcd_out.empty()) {
      waveform::write_vcd(vcd_out, vcd_signals);
      std::printf("vcd             : %zu signals -> %s\n", vcd_signals.size(),
                  vcd_out.c_str());
    }
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_run: %s\n", e.what());
    return 1;
  }
}
