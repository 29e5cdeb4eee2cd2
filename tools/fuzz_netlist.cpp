// Fuzz harness for the structural netlist parser (cell::parse_netlist) and
// the builder's validation (sim::CircuitBuilder::analyze_topology).
//
// The parser is the library's main untrusted-input boundary: netlist files
// come from users and generators, so every byte sequence must either parse
// or throw a structured ConfigError -- never assert, crash, or hang. The
// harness also round-trips anything that parses through write_netlist and
// re-parses it, so printer/parser drift traps too. Every netlist that
// parses then goes through analyze_topology against the reference library:
// it must return or throw ConfigError, and what it returns must keep the
// topology contract (every net id in range and naming the string it
// replaced, `order` a permutation in which each element follows its
// drivers).
//
// Two build modes share LLVMFuzzerTestOneInput:
//
//   * libFuzzer (clang, -DCHARLIE_LIBFUZZER=ON): coverage-guided fuzzing.
//       ./fuzz_netlist -max_total_time=30 tests/fuzz/netlist
//   * standalone (any compiler, the default): a corpus replay driver that
//     feeds every file (or every regular file under a directory) to the
//     same entry point. Wired into ctest so the seed corpus is replayed by
//     the tier-1 suite on every build, gcc included.
//       ./fuzz_netlist tests/fuzz/netlist seed.net ...
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "sim/circuit_builder.hpp"
#include "util/error.hpp"

namespace {

using charlie::cell::NetlistDesc;
using charlie::sim::NetlistTopology;

const charlie::sim::CircuitBuilder& reference_builder() {
  static const charlie::sim::CircuitBuilder builder(
      std::make_shared<const charlie::cell::CellLibrary>(
          charlie::cell::CellLibrary::reference()));
  return builder;
}

// Net id `net` is in range and names `name`.
bool names(const NetlistDesc& desc, int net, const std::string& name) {
  const std::size_t n_nets =
      desc.inputs.size() + desc.instances.size() + desc.wires.size();
  return net >= 0 && static_cast<std::size_t>(net) < n_nets &&
         NetlistTopology::net_name(desc, static_cast<std::size_t>(net)) ==
             name;
}

// The contract analyze_topology promises its callers.
bool topology_holds(const NetlistDesc& desc, const NetlistTopology& topo) {
  const std::size_t n_inputs = desc.inputs.size();
  const std::size_t n_gates = desc.instances.size();
  const std::size_t n_elems = n_gates + desc.wires.size();
  if (topo.specs.size() != n_gates || topo.input_begin.size() != n_elems + 1 ||
      topo.input_begin[0] != 0 ||
      topo.input_begin[n_elems] != topo.input_net.size() ||
      topo.output_net.size() != desc.outputs.size() ||
      topo.order.size() != n_elems) {
    return false;
  }
  for (std::size_t e = 0; e < n_elems; ++e) {
    const std::size_t begin = topo.input_begin[e];
    const std::size_t end = topo.input_begin[e + 1];
    if (end < begin || end > topo.input_net.size()) return false;
    if (NetlistTopology::is_wire(desc, e)) {
      if (end - begin != 1 ||
          !names(desc, topo.input_net[begin],
                 NetlistTopology::wire_of(desc, e).input)) {
        return false;
      }
      continue;
    }
    const auto& inst = desc.instances[e];
    if (topo.specs[e] == nullptr ||
        topo.specs[e]->arity != static_cast<int>(inst.inputs.size()) ||
        end - begin != inst.inputs.size()) {
      return false;
    }
    for (std::size_t k = 0; k < inst.inputs.size(); ++k) {
      if (!names(desc, topo.input_net[begin + k], inst.inputs[k])) {
        return false;
      }
    }
  }
  for (std::size_t i = 0; i < desc.outputs.size(); ++i) {
    if (!names(desc, topo.output_net[i], desc.outputs[i])) return false;
  }
  // `order` is a permutation in which each element follows its drivers.
  std::vector<std::size_t> position(n_elems, n_elems);
  for (std::size_t p = 0; p < n_elems; ++p) {
    const int e = topo.order[p];
    if (e < 0 || static_cast<std::size_t>(e) >= n_elems ||
        position[static_cast<std::size_t>(e)] != n_elems) {
      return false;
    }
    position[static_cast<std::size_t>(e)] = p;
  }
  for (std::size_t e = 0; e < n_elems; ++e) {
    for (std::size_t a = topo.input_begin[e]; a < topo.input_begin[e + 1];
         ++a) {
      const auto net = static_cast<std::size_t>(topo.input_net[a]);
      if (net >= n_inputs && position[net - n_inputs] >= position[e]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  NetlistDesc desc;
  try {
    desc = charlie::cell::parse_netlist(text, "fuzz");
    // Round-trip invariant: a parsed netlist serializes to text that parses
    // back to the same shape.
    const NetlistDesc again = charlie::cell::parse_netlist(
        charlie::cell::write_netlist(desc), "fuzz");
    if (again.inputs.size() != desc.inputs.size() ||
        again.outputs.size() != desc.outputs.size() ||
        again.instances.size() != desc.instances.size() ||
        again.wires.size() != desc.wires.size()) {
      __builtin_trap();
    }
  } catch (const charlie::ConfigError&) {
    // The one contractual failure mode: a structured syntax error.
    return 0;
  }
  try {
    const NetlistTopology topo = reference_builder().analyze_topology(desc);
    if (!topology_holds(desc, topo)) __builtin_trap();
  } catch (const charlie::ConfigError&) {
    // A semantic error: unknown cell, arity, drivers, cycle, wire params.
  }
  return 0;
}

#ifndef CHARLIE_FUZZ_LIBFUZZER

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace {

int replay_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fuzz_netlist: cannot open %s\n",
                 path.string().c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: fuzz_netlist <corpus-file-or-dir>...\n"
                 "(standalone replay driver; build with "
                 "-DCHARLIE_LIBFUZZER=ON under clang for real fuzzing)\n");
    return 2;
  }
  int failures = 0;
  std::size_t replayed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path arg(argv[i]);
    if (std::filesystem::is_directory(arg)) {
      std::vector<std::filesystem::path> files;
      for (const auto& entry : std::filesystem::directory_iterator(arg)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());
      for (const auto& file : files) {
        failures += replay_file(file);
        ++replayed;
      }
    } else {
      failures += replay_file(arg);
      ++replayed;
    }
  }
  std::printf("fuzz_netlist: replayed %zu input%s, %d unreadable\n", replayed,
              replayed == 1 ? "" : "s", failures);
  return failures == 0 ? 0 : 1;
}

#endif  // CHARLIE_FUZZ_LIBFUZZER
