// Characterized standard-cell library: the construction front-end's
// registry of cells.
//
// Real timing flows separate *cell characterization* (run the analog
// substrate once per cell, fit the delay model) from *netlist
// instantiation* (stamp thousands of gate instances that share the fitted
// model). CellLibrary is that separation for this repo:
//
//   * characterize(tech) runs the existing spice::measure_gate_targets +
//     core::fit_gate_params pipeline once per hybrid cell (NOR2, NOR3,
//     NAND2, NAND3) and spice::measure_inverter_delays once for the INV;
//     results are memoized process-wide, keyed by cell name + technology
//     fingerprint, so repeated characterize() calls never re-run SPICE.
//   * save_csv/load_csv persist a characterized library, fingerprint
//     included, so examples and benches skip the substrate entirely when a
//     valid cache file exists (characterize_cached wraps the whole
//     load-or-characterize-and-save lifecycle).
//   * reference() builds the library from the Table-I-regime reference
//     parameters (core::GateParams::*_reference) without touching the
//     substrate -- instant startup for demos; its NOR2 is bit-identical to
//     the paper's NorParams::paper_table1 model.
//
// Cells come in two families:
//   * hybrid MIS cells (NOR2/NOR3/NAND2/NAND3): fitted core::GateParams
//     with one shared core::GateModeTables per cell -- every channel
//     instance produced by the spec shares that table;
//   * SIS cells (INV/BUF/AND2/OR2/XOR2): inertial channels whose rise/fall
//     delays are measured (INV) or derived from the measured cells by
//     documented composition (BUF = 2x INV, AND2 = NAND2 + INV,
//     OR2 = NOR2 + INV, XOR2 = 3 average NAND2 stages).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/gate_mode_tables.hpp"
#include "core/gate_params.hpp"
#include "core/process_point.hpp"
#include "sim/channel.hpp"
#include "sim/circuit.hpp"
#include "spice/technology.hpp"

namespace charlie::cell {

/// Per-arc pin-to-pin delay table of one cell: the static-timing-analysis
/// front door. Entry i bounds the time from input i's transition to the
/// output V_th crossing in the named direction, over every switching
/// context the event engine can produce (sta layer; conservatism argument
/// in docs/sta.md).
struct CellArcTable {
  std::vector<double> output_rise;  // arc input i -> output rising [s]
  std::vector<double> output_fall;  // arc input i -> output falling [s]
};

struct CellSpec {
  std::string name;          // canonical upper-case, e.g. "NOR2"
  sim::GateKind kind = sim::GateKind::kBuf;
  int arity = 0;
  bool hybrid = false;       // hybrid MIS channel vs SIS inertial channel

  // Hybrid cells: fitted model and the one mode table every instance shares.
  core::GateParams params;
  std::shared_ptr<const core::GateModeTables> tables;

  // SIS cells: per-direction inertial delays.
  double rise_delay = 0.0;  // output rising [s]
  double fall_delay = 0.0;  // output falling [s]

  /// MIS-aware channel sharing this spec's mode table (hybrid cells only).
  std::unique_ptr<sim::GateChannel> make_mis_channel() const;

  /// Inertial output channel (SIS cells only).
  std::unique_ptr<sim::SisChannel> make_sis_channel() const;

  /// Static per-arc delays of this cell at its characterized (or derived)
  /// process point. Hybrid cells evaluate the conservative characteristic
  /// envelope on the shared mode tables (core::gate_arc_envelope) and add
  /// the pure delay delta_min -- the same total delay path the event
  /// channel applies; SIS cells report their inertial rise/fall delay on
  /// every pin. A corner library (at_corner) yields that corner's arcs.
  CellArcTable arc_table() const;
};

class CellLibrary {
 public:
  /// Canonical cell names, registry order: INV, BUF, AND2, OR2, XOR2,
  /// NAND2, NOR2, NAND3, NOR3.
  static const std::vector<std::string>& cell_names();

  /// Library from the Table-I-regime reference parameters; no substrate
  /// run, empty technology fingerprint.
  static CellLibrary reference();

  /// Characterize every cell against the analog substrate. Memoized: the
  /// measure+fit pipeline runs at most once per (cell, tech fingerprint)
  /// per process; later calls reuse the cached fit and shared mode tables.
  static CellLibrary characterize(const spice::Technology& tech);

  /// Load `csv_path` if it holds a nominal library characterized for `tech`
  /// (matching technology fingerprint, nominal corner row); otherwise
  /// characterize and (re)write the file. The CSV is a cache: a missing,
  /// stale, malformed, or corner file is regenerated, never an error.
  static CellLibrary characterize_cached(const std::string& csv_path,
                                         const spice::Technology& tech);

  /// Derive this (nominal) library at a process point: hybrid cells via
  /// GateParams::derive_for and fresh GateModeTables, SIS cells by scaling
  /// their inertial delays with the common resistance factor. No SPICE
  /// runs. Throws ConfigError when called on an already-derived
  /// (non-nominal) library -- corners do not compose.
  CellLibrary at_corner(const core::ProcessPoint& point) const;

  /// Persist the library (long-format CSV `cell,field,index,value`,
  /// full-precision values, fingerprint row first).
  void save_csv(const std::string& path) const;

  /// Reload a library written by save_csv. Throws ConfigError on malformed
  /// or incomplete files. Mode tables are re-derived from the stored
  /// parameters (cheap); the characterization pipeline is NOT re-run.
  static CellLibrary load_csv(const std::string& path);

  /// Lookup by (case-insensitive) cell name; spec() throws ConfigError for
  /// unknown cells, find() returns nullptr.
  const CellSpec& spec(const std::string& name) const;
  const CellSpec* find(const std::string& name) const;

  /// Override the inertial delays of a SIS cell (demos that sweep a delay).
  /// Throws ConfigError for unknown or hybrid cells.
  void set_sis_delays(const std::string& name, double rise, double fall);

  /// Fingerprint of the technology this library was characterized for;
  /// empty for reference() libraries.
  const std::string& tech_fingerprint() const { return fingerprint_; }

  /// Fingerprint of the process corner the cells are derived at
  /// (core::ProcessPoint::fingerprint(); the nominal fingerprint unless the
  /// library came from at_corner).
  const std::string& corner_fingerprint() const { return corner_; }

  /// CSV schema version written by save_csv and required by load_csv; files
  /// from older schemas fail to load and regenerate silently.
  static constexpr int kCsvFormatVersion = 2;

  const std::vector<CellSpec>& specs() const { return specs_; }

  /// Testing hooks for the characterize-once guarantee: number of times the
  /// measure+fit pipeline actually ran for `name` (any technology) since
  /// process start or the last reset; reset clears both the counters and
  /// the memoization cache.
  static long n_characterization_runs(const std::string& name);
  static void reset_characterization_cache();

 private:
  const CellSpec* find_canonical(const std::string& canonical) const;

  std::vector<CellSpec> specs_;  // registry order
  std::string fingerprint_;
  std::string corner_ = core::ProcessPoint::nominal().fingerprint();
};

}  // namespace charlie::cell
