// Synthetic benchmark netlist generator (cell::generate_netlist CLI).
//
//   gen_netlist --gates 100000 --out big.net
//   gen_netlist --gates 250000 --inputs 128 --wire-fraction 0.05 --seed 7
//
// Emits the repo's netlist text format (docs/netlist_format.md) to --out,
// or stdout when --out is omitted. Deterministic for a fixed flag set; the
// defaults produce the >= 100k-gate workload the sharded-simulation
// benchmark uses (bench/bench_sharded_throughput.cpp regenerates the same
// netlist in-process, so no generated file needs to be checked in).
#include <cstdio>
#include <iostream>

#include "cell/netlist_gen.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  using namespace charlie;
  try {
    util::Cli cli(argc, argv);
    cell::NetlistGenConfig config;
    config.n_gates = cli.get_count("--gates", config.n_gates);
    config.n_inputs = cli.get_count("--inputs", config.n_inputs);
    config.n_outputs = cli.get_count("--outputs", config.n_outputs);
    config.layer_width = cli.get_count("--width", config.layer_width);
    config.locality = cli.get_count("--locality", config.locality);
    config.wire_fraction =
        cli.get_double("--wire-fraction", config.wire_fraction);
    config.seed =
        static_cast<std::uint64_t>(cli.get_int("--seed", 1));
    const std::string out = cli.get_string("--out", "");
    cli.finish();

    const cell::NetlistDesc desc = cell::generate_netlist(config);
    if (out.empty()) {
      std::cout << cell::write_netlist(desc);
    } else {
      cell::write_netlist_file(desc, out);
      std::fprintf(stderr,
                   "gen_netlist: wrote %zu gates, %zu wires, %zu inputs, "
                   "%zu outputs to %s\n",
                   desc.n_gates(), desc.n_wires(), desc.inputs.size(),
                   desc.outputs.size(), out.c_str());
    }
    return 0;
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "gen_netlist: %s\n", e.what());
    return 1;
  }
}
