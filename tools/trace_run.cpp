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
//   --threads N       worker threads (default 0 = hardware concurrency;
//                     sharded mode runs at most one per block)
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
//   --vcd-out FILE    VCD waveforms of the inputs and observed nets (batch:
//                     run 0; sharded: the last run)
//
// The tracer is armed for the (last) simulation only when --trace-out is
// given; with no output flags the tool still runs and prints the summary
// (useful as a smoke check). Exit status 0 iff every run finished kOk.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "cell/run_export.hpp"
#include "sim/batch_runner.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/sharded_circuit.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

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
    const cell::RunExport exports{cli.get_string("--trace-out", ""),
                                  cli.get_string("--metrics-out", ""),
                                  cli.get_string("--vcd-out", "")};
    const std::size_t n_repeat = cli.get_count("--repeat", 1, 1);
    cli.finish();
    if (netlist_path.empty()) throw ConfigError("--netlist is required");
    if (n_repeat > 1 && n_shards == 0) {
      throw ConfigError("--repeat needs --shards");
    }

    const cell::NetlistDesc desc = cell::read_netlist_file(netlist_path);
    // Resolved up front in both modes: a netlist with nothing to observe
    // fails here, before any build or run.
    const std::vector<std::string> out_nets = cell::observed_nets(desc);
    const auto library = std::make_shared<const cell::CellLibrary>(
        cell::CellLibrary::reference());
    const sim::CircuitBuilder builder(library);
    bool all_ok = true;

    if (n_shards > 0) {
      // Sharded mode: one simulation of the whole netlist, wavefront-
      // parallel across shards.
      const auto circuit = builder.build_sharded(desc, n_shards);
      const cell::SeededStimulus stimulus =
          cell::seeded_stimulus(circuit->n_inputs(), n_transitions, seed);
      sim::ShardedSimConfig config;
      config.n_threads = n_threads;
      sim::ShardedCircuit::Result sharded;  // points into `circuit`
      for (std::size_t run = 1; run <= n_repeat; ++run) {
        if (run == n_repeat) exports.arm();
        const auto t0 = std::chrono::steady_clock::now();
        sharded = circuit->simulate(stimulus.traces, 0.0, stimulus.t_end,
                                    config);
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
      std::printf("mode            : sharded (%zu blocks, %zu windows, "
                  "%zu threads)\n",
                  circuit->n_shards(), sharded.n_windows, sharded.n_threads);
      std::printf("engine events   : %ld\n", sharded.n_events);
      std::printf("load imbalance  : %.3f (1.0 = balanced)\n",
                  sharded.load_imbalance());
      exports.write(sharded.metrics, desc,
                    [&](const std::string& net)
                        -> const waveform::DigitalTrace& {
                      return sharded.trace(net);
                    });
    } else {
      sim::BatchConfig config;
      config.trace = cell::driver_stimulus(n_transitions);
      config.n_runs = n_runs;
      config.n_threads = n_threads;
      config.base_seed = seed;
      if (!exports.vcd_out.empty()) config.capture_run = 0;
      exports.arm();
      sim::BatchRunner runner([&] { return builder.build(desc); }, out_nets,
                              config);
      const sim::BatchResult batch = runner.run();
      all_ok = batch.all_ok();
      std::printf("mode            : batch (%zu runs, %zu threads)\n",
                  batch.n_runs, batch.n_threads);
      std::printf("engine events   : %lld\n", batch.total_events);
      exports.write(batch.metrics, desc, cell::captured_traces(batch));
    }
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_run: %s\n", e.what());
    return 1;
  }
}
