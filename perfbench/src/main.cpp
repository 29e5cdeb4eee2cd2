// perfbench: end-to-end benchmark of the hybrid-delay simulation stack.
//
//   perfbench --workload mc_c432_var --seed 1 --seconds 10 --trace 0
//             [--root .] [--work .bench_build/perfbench/work]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 adds a
// traced run that splits the time by layer. The last stdout line is one
// JSON object with every metric measured; run.py selects the ones
// BENCHMARK.json names. Exit status 0 iff the correctness gate passed.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  try {
    charlie::util::Cli cli(argc, argv);
    perfbench::Options options;
    options.workload = cli.get_string("--workload", "");
    options.seed = static_cast<std::uint64_t>(cli.get_int("--seed", 1));
    options.seconds = cli.get_double("--seconds", 10.0);
    options.trace = cli.get_int("--trace", 0) != 0;
    options.root = cli.get_string("--root", ".");
    options.work = cli.get_string("--work", ".bench_build/perfbench/work");
    cli.finish();
    if (!(options.seconds > 0.0)) {
      throw charlie::ConfigError("--seconds must be positive");
    }
    std::filesystem::create_directories(options.work);

    std::unique_ptr<perfbench::Workload> workload;
    if (options.workload == "mc_c432_var") {
      workload = perfbench::make_mc_c432_var(options);
    } else if (options.workload == "shard_gen100k") {
      workload = perfbench::make_shard_gen100k(options);
    } else if (options.workload == "sta_gen100k") {
      workload = perfbench::make_sta_gen100k(options);
    } else {
      throw charlie::ConfigError(
          "--workload must be mc_c432_var, shard_gen100k or sta_gen100k");
    }
    return perfbench::run(*workload, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
