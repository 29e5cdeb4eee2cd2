// Structural netlist description and its text format.
//
// A netlist is the cell-library front-end's unit of work: primary inputs,
// primary outputs, cell instances (cell name, output net, input nets), and
// RC wires, decoupled from any characterized library so the same topology
// can be instantiated against different technologies. sim::CircuitBuilder
// turns a NetlistDesc + cell::CellLibrary into a validated sim::Circuit.
//
// Text grammar (see docs/netlist_format.md for the full description):
//
//   # comment (also //); blank lines ignored
//   input(a, b, c)          # declare primary inputs, repeatable
//   output(out1, out2)      # declare observed primary outputs, repeatable
//   NAND2(n1, a, b)         # instance: CELL(output, input, ...)
//   nor3(out, n1, c, d)     # cell names are case-insensitive
//   WIRE(n1w, n1, r=12e3, c=2.5e-15, sections=8)   # RC interconnect
//
// WIRE statements take two nets (driven net first, driving net second) and
// key=value parameters: `r` and `c` (total line resistance/capacitance,
// required), `sections`, `rdrive`, `cload`, `tdrive`, `vdd` (optional).
//
// Net names are case-sensitive identifiers [A-Za-z_][A-Za-z0-9_]*. The
// parser checks syntax only (including duplicate input/output
// declarations); semantic validation (cells exist, arities match, nets are
// driven exactly once, the graph is acyclic) happens in CircuitBuilder,
// which knows the library.
#pragma once

#include <string>
#include <vector>

namespace charlie::cell {

struct NetlistInstance {
  std::string cell;                 // canonical upper-case cell name
  std::string output;               // net driven by this instance
  std::vector<std::string> inputs;  // input nets, port order
  int line = 0;                     // 1-based source line (diagnostics)
};

/// One `WIRE(out, in, r=.., c=.., ...)` statement: an RC interconnect
/// segment driving `output` from `input` (wire::WireParams semantics).
struct NetlistWire {
  std::string output;      // far-end net the wire drives
  std::string input;       // near-end net driving the wire
  double r_total = 0.0;    // [ohm], required in the text format
  double c_total = 0.0;    // [farad], required in the text format
  int sections = 8;
  double r_drive = 0.0;    // [ohm]
  double c_load = 0.0;     // [farad]
  double t_drive = 0.0;    // driver edge time constant [s]; 0 = ideal step
  double vdd = 0.8;        // [volt]
  int line = 0;            // 1-based source line (diagnostics)
};

struct NetlistDesc {
  std::vector<std::string> inputs;   // primary inputs, declaration order
  std::vector<std::string> outputs;  // declared primary outputs, in order
  std::vector<NetlistInstance> instances;
  std::vector<NetlistWire> wires;

  std::size_t n_gates() const { return instances.size(); }
  std::size_t n_wires() const { return wires.size(); }
};

/// Parse netlist text. Throws ConfigError with a `source:line:` prefix on
/// syntax errors (malformed statements, bad identifiers, empty argument
/// lists, re-declared primary inputs/outputs, malformed or missing WIRE
/// parameters, key=value arguments outside WIRE statements). `source`
/// names the text's origin in those messages -- read_netlist_file passes
/// the file path, so errors are directly clickable.
NetlistDesc parse_netlist(const std::string& text,
                          const std::string& source = "netlist");

/// Read and parse a netlist file (errors carry `path:line:`).
NetlistDesc read_netlist_file(const std::string& path);

/// The nets a run of `desc` observes and its timing report ends at: the
/// declared outputs, else the last instance's output, else the last wire's.
/// Throws ConfigError for a netlist with none of these (inputs only).
std::vector<std::string> observed_nets(const NetlistDesc& desc);

/// Serialize to the text format above; parse_netlist(write_netlist(d))
/// round-trips every field (doubles are written with full precision).
std::string write_netlist(const NetlistDesc& desc);

/// Serialize to a file. Throws ConfigError if the file cannot be written.
void write_netlist_file(const NetlistDesc& desc, const std::string& path);

}  // namespace charlie::cell
